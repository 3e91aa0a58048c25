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

// TestRunKeyNormalize: a key normalizes to itself, field for field, with one
// exception: a Snake bandwidth threshold of −0 becomes 0, which compares
// equal but marshals apart. Normalize fills in no default, so a zero scale
// dimension or Snake count is rejected by name like any key no run could
// simulate.
func TestRunKeyNormalize(t *testing.T) {
	gpu, scale := config.Scaled(4, 64), workloads.DefaultScale()
	def := core.Defaults()
	zero := def
	zero.BWHalt, zero.BWResume = 0, 0
	negZero := def
	negZero.BWHalt, negZero.BWResume = math.Copysign(0, -1), 0
	noInterWarp := def
	noInterWarp.InterWarpDegree = 0
	for i, tc := range []struct{ key, want RunKey }{
		{RunKey{Bench: "lps", Mech: "snake", GPU: gpu, Scale: scale}, RunKey{}},
		{RunKey{Bench: "lps", Mech: CustomSnake, Snake: &def, GPU: gpu, Scale: scale}, RunKey{}},
		{RunKey{Bench: "lps", Mech: CustomSnake, Snake: &noInterWarp, GPU: gpu, Scale: scale}, RunKey{}},
		{RunKey{Bench: "lps", Mech: CustomSnake, Snake: &zero, GPU: gpu, Scale: scale}, RunKey{}},
		{RunKey{Bench: "lps", Mech: CustomSnake, Snake: &negZero, GPU: gpu, Scale: scale},
			RunKey{Bench: "lps", Mech: CustomSnake, Snake: &zero, GPU: gpu, Scale: scale}},
	} {
		want := tc.want
		if want.Bench == "" {
			want = tc.key
		}
		got, err := tc.key.Normalize()
		if err != nil || got.Hash() != want.Hash() || !reflect.DeepEqual(got, want) {
			t.Errorf("key %d normalizes to %+v, %v; want %+v", i, got, err, want)
		}
		if again, err := got.Normalize(); err != nil || again.Hash() != got.Hash() {
			t.Errorf("key %d: canonical key renormalizes to %+v, %v", i, again, err)
		}
	}
	if !math.Signbit(negZero.BWHalt) || def != core.Defaults() {
		t.Error("Normalize wrote through the caller's Snake config")
	}
	wide := scale
	wide.WarpsPerCTA = 65
	deep, shallow := def, def
	deep.ChainDepth, shallow.ChainDepth = 9, 0
	for _, tc := range []struct {
		key  RunKey
		want string
	}{
		{RunKey{Bench: "nope", Mech: "snake", GPU: gpu}, `unknown benchmark "nope"`},
		{RunKey{Bench: "lps", Mech: "nope", GPU: gpu}, `unknown mechanism "nope"`},
		{RunKey{Bench: "lps", Mech: CustomSnake, GPU: gpu}, `unknown mechanism "snake:custom"`},
		{RunKey{Bench: "lps", Mech: "snake", Snake: &def, GPU: gpu}, `runs as mech "snake:custom"`},
		{RunKey{Bench: "lps", Mech: CustomSnake, Snake: &deep, GPU: gpu, Scale: scale}, "ChainDepth 9"},
		{RunKey{Bench: "lps", Mech: CustomSnake, Snake: &shallow, GPU: gpu, Scale: scale}, "ChainDepth 0"},
		{RunKey{Bench: "lps", Mech: CustomSnake, Snake: &core.Config{}, GPU: gpu, Scale: scale}, "TailEntries 0"},
		{RunKey{Bench: "lps", Mech: "snake", GPU: config.Scaled(0, 64)}, "NumSM 0"},
		{RunKey{Bench: "lps", Mech: "snake", GPU: gpu, Scale: workloads.Scale{CTAs: 1 << 20}}, "CTAs 1048576"},
		{RunKey{Bench: "lps", Mech: "snake", GPU: gpu}, "CTAs 0"},
		{RunKey{Bench: "lps", Mech: "snake", GPU: gpu, Scale: workloads.Scale{CTAs: 48, WarpsPerCTA: 8, Iters: -5}}, "Iters -5"},
		{RunKey{Bench: "lps", Mech: "snake", GPU: gpu, Scale: wide}, "does not fit in 64 warp slots"},
	} {
		if _, err := tc.key.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one containing %q", tc.key, err, tc.want)
		}
	}
}
