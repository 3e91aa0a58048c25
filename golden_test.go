package repro_test

import (
	"fmt"
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/workloads"
)

// TestGoldenEquivalence is the tentpole invariant of the engine's execution
// strategies: sharded parallel execution (Options.Parallelism) and recycled
// pooled engines must each produce statistics bit-identical to plain serial
// simulation on a fresh engine — and so must their combination. It runs the
// full Table 2 benchmark suite under both the baseline and the Snake
// prefetcher, simulates every (parallelism × reuse) variant, and compares
// Result.Stats and every per-SM counter block with reflect.DeepEqual — any
// divergence, down to a single stall cycle on one SM, fails the test.
func TestGoldenEquivalence(t *testing.T) {
	cfg := config.Scaled(4, 8) // 4 SMs: Parallelism=4 genuinely shards
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
// make GTO forget its greedy warp). Parallel and pooled runs must reproduce
// that state exactly.
func TestSkipEquivalenceGTOGreedyReset(t *testing.T) {
	assertEngineEquivalent(t, "lps", workloads.Scale{}, config.Scaled(2, 16), "snake")
}

// assertEngineEquivalent runs bench/mech under every engine strategy —
// serial vs parallel work units, freshly constructed vs a recycled engine —
// and demands bit-identical results. The reference is the plainest
// configuration: serial, fresh construction.
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
	run := func(parallelism int, reuse bool) *sim.Result {
		opt := sim.Options{
			Config:        cfg,
			NewPrefetcher: factory,
			Parallelism:   parallelism,
		}
		var res *sim.Result
		if reuse {
			res, err = pooled.RunTagged(k, opt, mech)
		} else {
			res, err = sim.Run(k, opt)
		}
		if err != nil {
			t.Fatalf("parallelism=%d reuse=%v: %v", parallelism, reuse, err)
		}
		return res
	}
	ref := run(1, false)
	for _, v := range []struct {
		parallelism int
		reuse       bool
	}{
		{4, false},  // parallel work units (shards + memory partitions)
		{12, false}, // one worker per work unit (4 SMs + 8 L2 partitions)
		{1, true},   // recycled engine, plain serial
		{4, true},   // recycled engine, parallel
		{12, true},  // recycled engine, maximally wide
	} {
		got := run(v.parallelism, v.reuse)
		label := fmt.Sprintf("parallelism=%d reuse=%v", v.parallelism, v.reuse)
		if !reflect.DeepEqual(got.Stats, ref.Stats) {
			t.Errorf("%s: aggregate stats diverge from serial fresh run:\n got: %+v\n ref: %+v",
				label, got.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(got.PerSM, ref.PerSM) {
			for i := range got.PerSM {
				if !reflect.DeepEqual(got.PerSM[i], ref.PerSM[i]) {
					t.Errorf("%s: SM %d stats diverge:\n got: %+v\n ref: %+v",
						label, i, got.PerSM[i], ref.PerSM[i])
				}
			}
		}
	}
}
