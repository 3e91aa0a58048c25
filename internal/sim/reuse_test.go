package sim

import (
	"math"
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/workloads"
)

// reuseMechs extends the parallel-equivalence spread with the two storage
// reconfiguration paths reinit must handle: decoupled unified storage and the
// isolated prefetch buffer.
func reuseMechs() map[string]func(int) prefetch.Prefetcher {
	m := parMechs()
	m["isolated-snake"] = func(int) prefetch.Prefetcher { return core.NewIsolatedSnake() }
	m["mta+decoupled"] = func(int) prefetch.Prefetcher { return &prefetch.Decoupled{Inner: prefetch.NewMTA()} }
	return m
}

// TestPooledEquivalenceMatrix is the arena-recycling half of the equivalence
// guarantee: an Engine reused across every workload, parallelism and slack
// window must produce Results bit-identical to a fresh
// construction for each run. One Engine per mechanism survives the whole
// matrix, so each run reinitializes state dirtied by a different kernel (the
// slack epoch buffers included).
func TestPooledEquivalenceMatrix(t *testing.T) {
	// (Parallelism, SlackWindow) pairs covering both axes without squaring
	// the matrix: per-cycle serial, short epochs under the sharded barrier,
	// and auto-length epochs at one worker per unit.
	cells := []struct{ p, slack int }{{1, 1}, {4, 2}, {4, 0}, {12, 0}}
	for mech, pf := range reuseMechs() {
		en := NewEngine()
		for _, name := range workloads.Names() {
			k, err := workloads.Build(name, workloads.Tiny())
			if err != nil {
				t.Fatal(err)
			}
			for _, cell := range cells {
				opt := Options{
					Config: parCfg(), NewPrefetcher: pf,
					Parallelism: cell.p, SlackWindow: cell.slack,
				}
				want, err := Run(k, opt)
				if err != nil {
					t.Fatalf("%s/%s fresh: %v", name, mech, err)
				}
				got, err := en.RunTagged(k, opt, mech)
				if err != nil {
					t.Fatalf("%s/%s pooled: %v", name, mech, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s P=%d slack=%d: pooled engine diverges from fresh\n got:  %+v\n want: %+v",
						name, mech, cell.p, cell.slack, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestEngineReuseAcrossMechanisms cycles one Engine through mechanisms with
// different prefetchers and L1 storage organizations (none, unified-decoupled,
// isolated), checking each run against a fresh engine. This is the pool-miss
// shape: the arenas recycle but the prefetchers and cache wiring must be
// rebuilt per mechanism.
func TestEngineReuseAcrossMechanisms(t *testing.T) {
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine()
	order := []string{"baseline", "snake", "isolated-snake", "mta+decoupled", "snake", "baseline", "ideal"}
	mechs := reuseMechs()
	for i, mech := range order {
		opt := Options{Config: parCfg(), NewPrefetcher: mechs[mech]}
		want, err := Run(k, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := en.RunTagged(k, opt, mech)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d (%s): reused engine diverges from fresh\n got:  %+v\n want: %+v",
				i, mech, got.Stats, want.Stats)
		}
	}
}

// TestEngineReuseUntaggedRebuildsPrefetchers pins the empty-tag contract:
// without a tag the engine must call the factory every run, never recycle
// prefetcher instances.
func TestEngineReuseUntaggedRebuildsPrefetchers(t *testing.T) {
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine()
	calls := 0
	opt := Options{Config: parCfg(), NewPrefetcher: func(int) prefetch.Prefetcher {
		calls++
		return core.NewSnake()
	}}
	if _, err := en.Run(k, opt); err != nil {
		t.Fatal(err)
	}
	perRun := calls
	if perRun == 0 {
		t.Fatal("factory never called")
	}
	if _, err := en.Run(k, opt); err != nil {
		t.Fatal(err)
	}
	if calls != 2*perRun {
		t.Errorf("untagged rerun called factory %d times, want %d", calls-perRun, perRun)
	}
	if _, err := en.RunTagged(k, opt, "snake"); err != nil {
		t.Fatal(err)
	}
	if calls != 3*perRun {
		t.Errorf("first tagged run called factory %d times, want %d (tag changed)", calls-2*perRun, perRun)
	}
	if _, err := en.RunTagged(k, opt, "snake"); err != nil {
		t.Fatal(err)
	}
	if calls != 3*perRun {
		t.Errorf("matching tagged rerun called factory %d times, want 0", calls-3*perRun)
	}
}

// TestRepeatedRunAllocs is the steady-state claim behind the engine pool:
// once warm, re-running a kernel on a recycled Engine performs near-zero heap
// allocations — the arenas (warp contexts, cache line index, MSHR files, port
// rings, stats shards, route views, scatter scratch) are all reused in place,
// and in parallel mode the barrier group is embedded in the engine, so a run
// allocates only its worker goroutines' spawns. The bound leaves headroom for
// the Result copy and the prefetcher's small per-run maps; a fresh engine
// costs thousands of allocations per run (the fresh rows of
// BenchmarkSimulatorThroughput).
//
// The par4 measurement pins the allocation-flat-parallel-mode claim: a warm
// pooled run must cost the same, up to the three worker spawns, whether it
// ticks serially or on four workers (the multi-worker barrier, the epoch
// bitsets and the due views allocate nothing per run). It is checked on the
// tiny shape and on the mid-scale lps shape of the benchmark's pooled parN
// rows.
func TestRepeatedRunAllocs(t *testing.T) {
	shapes := []struct {
		name string
		sc   workloads.Scale
		cfg  config.GPU
	}{
		{"tiny", workloads.Tiny(), parCfg()},
		{"mid", workloads.Scale{CTAs: 24, WarpsPerCTA: 8, Iters: 8}, config.Scaled(8, 48)},
	}
	for _, sh := range shapes {
		k, err := workloads.Build("lps", sh.sc)
		if err != nil {
			t.Fatal(err)
		}
		measure := func(opt Options) float64 {
			en := NewEngine()
			run := func() {
				if _, err := en.RunTagged(k, opt, "snake"); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: first run constructs everything
			return testing.AllocsPerRun(20, run)
		}
		pf := func(int) prefetch.Prefetcher { return core.NewSnake() }
		serial := measure(Options{Config: sh.cfg, NewPrefetcher: pf})
		par := measure(Options{Config: sh.cfg, NewPrefetcher: pf, Parallelism: 4})
		t.Logf("%s: steady-state allocs/run: serial=%.1f par4=%.1f", sh.name, serial, par)
		if raceEnabled {
			// The race detector allocates for its own bookkeeping; the loops
			// above still provide race coverage of the reuse paths.
			continue
		}
		const bound = 64
		if serial > bound {
			t.Errorf("%s: steady-state serial reuse allocates %.1f/run, want <= %d", sh.name, serial, bound)
		}
		if par > bound {
			t.Errorf("%s: steady-state par4 reuse allocates %.1f/run, want <= %d", sh.name, par, bound)
		}
		// Flat means within 1.2x, plus up to 4 allocs of slack below 16
		// allocs, where one incidental allocation would trip the ratio.
		if limit := math.Min(serial*1.2+4, math.Max(16, serial*1.2)); par > limit {
			t.Errorf("%s: par4-pooled allocates %.1f/run vs serial %.1f: parallel mode must stay allocation-flat (<= %.1f)", sh.name, par, serial, limit)
		}
	}
}
