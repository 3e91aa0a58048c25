package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// TestGoldenEquivalence is the invariant of the engine's execution
// strategies: a recycled pooled engine must produce statistics bit-identical
// to a fresh one, at the auto epoch window and per cycle. It runs the full
// Table 2 benchmark suite under both the baseline and the Snake prefetcher,
// simulates every (window × reuse) variant, and compares Result.Stats and
// every per-SM counter block (Engine.PerSM, a test seam) with
// reflect.DeepEqual — any divergence, down to a single stall cycle on one
// SM, fails the test.
func TestGoldenEquivalence(t *testing.T) {
	cfg := config.Scaled(4, 8)
	sc := workloads.Tiny()
	for _, bench := range workloads.Names() {
		for _, mech := range []string{"baseline", "snake"} {
			bench, mech := bench, mech
			t.Run(bench+"/"+mech, func(t *testing.T) {
				t.Parallel()
				assertEngineEquivalent(t, bench, sc, cfg, mech)
			})
		}
	}
}

// TestGoldenEquivalenceMediumScale repeats the equivalence check at a larger
// scale on two representative workloads (one stencil, one irregular), where
// interconnect backpressure, MSHR pressure and Snake's throttle all engage,
// and adds mechanisms with distinct per-cycle behaviour: the magic-fill
// Ideal oracle and a Decoupled-wrapped MTA.
func TestGoldenEquivalenceMediumScale(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale equivalence runs take a few seconds")
	}
	cfg := config.Scaled(4, 32)
	sc := workloads.Scale{CTAs: 16, WarpsPerCTA: 4, Iters: 6}
	cases := []struct{ bench, mech string }{
		{"lps", "snake"},
		{"mum", "snake"},
		{"lps", "ideal"},
		{"mum", "mta+decoupled"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.bench+"/"+c.mech, func(t *testing.T) {
			t.Parallel()
			assertEngineEquivalent(t, c.bench, sc, cfg, c.mech)
		})
	}
}

// TestSkipEquivalenceGTOGreedyReset pins default workload scale on 2 SMs x
// 16 warps, a configuration where GTO's greedy-warp state after a long memory
// wait decides which warp issues next (every fruitless no-ready cycle must
// make GTO forget its greedy warp). Per-cycle and pooled runs must reproduce
// that state exactly.
func TestSkipEquivalenceGTOGreedyReset(t *testing.T) {
	assertEngineEquivalent(t, "lps", workloads.DefaultScale(), config.Scaled(2, 16), "snake")
}

// assertEngineEquivalent runs bench/mech under every engine strategy —
// auto vs per-cycle epochs, freshly constructed vs a recycled engine — and
// demands bit-identical results. The reference is the configuration every
// caller runs: the auto window on a fresh engine.
func assertEngineEquivalent(t *testing.T, bench string, sc workloads.Scale, cfg config.GPU, mech string) {
	t.Helper()
	k, err := workloads.Build(bench, sc)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := harness.Mechanism(mech)
	if err != nil {
		t.Fatal(err)
	}
	// The pooled engine is pre-dirtied with a different benchmark so every
	// pooled variant below exercises true reinitialization, not first-run
	// construction.
	pooled := sim.NewEngine()
	dirty := "cp"
	if bench == "cp" {
		dirty = "lps"
	}
	dk, err := workloads.Build(dirty, workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pooled.RunTagged(dk, sim.Options{Config: cfg, NewPrefetcher: factory}, mech); err != nil {
		t.Fatal(err)
	}
	run := func(slack int, reuse bool) (stats.Sim, []stats.Sim) {
		opt := sim.WithSlackWindow(sim.Options{Config: cfg, NewPrefetcher: factory}, slack)
		en, tag := sim.NewEngine(), ""
		if reuse {
			en, tag = pooled, mech
		}
		res, err := en.RunTagged(k, opt, tag)
		if err != nil {
			t.Fatalf("slack=%d reuse=%v: %v", slack, reuse, err)
		}
		return res.Stats, en.PerSM()
	}
	refSt, refPer := run(0, false)
	for _, v := range []struct {
		slack int
		reuse bool
	}{
		{1, false}, // per-cycle epochs
		{0, true},  // recycled engine
		{1, true},  // recycled engine, per-cycle epochs
	} {
		gotSt, gotPer := run(v.slack, v.reuse)
		label := fmt.Sprintf("slack=%d reuse=%v", v.slack, v.reuse)
		if !reflect.DeepEqual(gotSt, refSt) {
			t.Errorf("%s: aggregate stats diverge from fresh auto-window run:\n got: %+v\n ref: %+v",
				label, gotSt, refSt)
		}
		if !reflect.DeepEqual(gotPer, refPer) {
			for i := range gotPer {
				if !reflect.DeepEqual(gotPer[i], refPer[i]) {
					t.Errorf("%s: SM %d stats diverge:\n got: %+v\n ref: %+v",
						label, i, gotPer[i], refPer[i])
				}
			}
		}
	}
}
