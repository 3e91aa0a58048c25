package harness

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/workloads"
)

// TestRunKeyNormalize: the canonical key fills in the scale's and the Snake
// config's defaults, so keys of one simulation hash alike, and normalizes
// to itself; a key no run could simulate is rejected with the reason.
func TestRunKeyNormalize(t *testing.T) {
	gpu, scale := config.Scaled(4, 64), workloads.DefaultScale()
	def := core.Defaults()
	canon := []RunKey{
		{Bench: "lps", Mech: "snake", GPU: gpu, Scale: scale},
		{Bench: "lps", Mech: CustomSnake, Snake: &def, GPU: gpu, Scale: scale},
	}
	negZero := def
	negZero.BWHalt, negZero.BWResume = math.Copysign(0, -1), 0
	same := []RunKey{
		{Bench: "lps", Mech: "snake", GPU: gpu},
		{Bench: "lps", Mech: "snake", GPU: gpu, Scale: workloads.Scale{Iters: -5}},
		{Bench: "lps", Mech: CustomSnake, Snake: &negZero, GPU: gpu, Scale: scale},
	}
	for i, k := range same {
		want := canon[0]
		if k.Snake != nil {
			want = canon[1]
		}
		got, err := k.Normalize()
		if err != nil || got.Hash() != want.Hash() || !reflect.DeepEqual(got, want) {
			t.Errorf("key %d normalizes to %+v, %v; want %+v", i, got, err, want)
		}
		if again, err := got.Normalize(); err != nil || again.Hash() != got.Hash() {
			t.Errorf("key %d: canonical key renormalizes to %+v, %v", i, again, err)
		}
	}
	if canon[1].Snake != &def || def != core.Defaults() {
		t.Error("Normalize wrote through the caller's Snake config")
	}
	wide := scale
	wide.WarpsPerCTA = 65
	for _, tc := range []struct {
		key  RunKey
		want string
	}{
		{RunKey{Bench: "nope", Mech: "snake", GPU: gpu}, `unknown benchmark "nope"`},
		{RunKey{Bench: "lps", Mech: "nope", GPU: gpu}, `unknown mechanism "nope"`},
		{RunKey{Bench: "lps", Mech: CustomSnake, GPU: gpu}, `unknown mechanism "snake:custom"`},
		{RunKey{Bench: "lps", Mech: "snake", Snake: &def, GPU: gpu}, `runs as mech "snake:custom"`},
		{RunKey{Bench: "lps", Mech: CustomSnake, Snake: &core.Config{ChainDepth: 9}, GPU: gpu}, "ChainDepth 9"},
		{RunKey{Bench: "lps", Mech: "snake", GPU: config.Scaled(0, 64)}, "NumSM 0"},
		{RunKey{Bench: "lps", Mech: "snake", GPU: gpu, Scale: workloads.Scale{CTAs: 1 << 20}}, "CTAs 1048576"},
		{RunKey{Bench: "lps", Mech: "snake", GPU: gpu, Scale: wide}, "does not fit in 64 warp slots"},
	} {
		if _, err := tc.key.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one containing %q", tc.key, err, tc.want)
		}
	}
}
