package workloads

import (
	"strings"
	"testing"
)

// TestScaleValidate: the scales the repository uses pass, including the
// service tests' long-running one at the work limit; each dimension past its
// limit, and a product past LimitWork, are rejected by name.
func TestScaleValidate(t *testing.T) {
	for _, sc := range []Scale{{}, DefaultScale(), Tiny(), {CTAs: 96, WarpsPerCTA: 8, Iters: 12}, {CTAs: 1024, WarpsPerCTA: 8, Iters: 128}, {CTAs: -1}} {
		if err := sc.Validate(); err != nil {
			t.Errorf("%+v: %v", sc, err)
		}
	}
	for field, sc := range map[string]Scale{
		"CTAs":        {CTAs: LimitCTAs + 1, WarpsPerCTA: 1, Iters: 1},
		"WarpsPerCTA": {CTAs: 1, WarpsPerCTA: LimitWarpsPerCTA + 1, Iters: 1},
		"Iters":       {CTAs: 1, WarpsPerCTA: 1, Iters: LimitIters + 1},
		"×":           {CTAs: 2048, WarpsPerCTA: 8, Iters: 128},
	} {
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%+v: Validate() = %v, want an error naming %s", sc, err, field)
		}
	}
}
