package sim

import (
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/workloads"
)

// reuseMechs extends the equivalence spread with the two storage
// reconfiguration paths reinit must handle: decoupled unified storage and the
// isolated prefetch buffer.
func reuseMechs() map[string]func(int) prefetch.Prefetcher {
	m := testMechs()
	m["isolated-snake"] = func(int) prefetch.Prefetcher { return core.NewIsolatedSnake() }
	m["decoupled-mta"] = NewDecoupledMTA
	return m
}

// TestPooledEquivalenceMatrix is the arena-recycling half of the equivalence
// guarantee: an Engine reused across every workload and slack window must
// produce outcomes bit-identical to a fresh
// construction for each run. One Engine per mechanism survives the whole
// matrix, so each run reinitializes state dirtied by a different kernel (the
// slack epoch buffers included).
func TestPooledEquivalenceMatrix(t *testing.T) {
	for mech, pf := range reuseMechs() {
		en := NewEngine()
		for _, name := range workloads.Names() {
			k, err := workloads.Build(name, workloads.Tiny())
			if err != nil {
				t.Fatal(err)
			}
			for _, slack := range slackCells {
				opt := WithSlackWindow(Options{Config: testCfg(), NewPrefetcher: pf}, slack)
				want, err := runOutcome(NewEngine(), k, opt, "")
				if err != nil {
					t.Fatalf("%s/%s fresh: %v", name, mech, err)
				}
				got, err := runOutcome(en, k, opt, mech)
				if err != nil {
					t.Fatalf("%s/%s pooled: %v", name, mech, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s slack=%d: pooled engine diverges from fresh\n got:  %+v\n want: %+v",
						name, mech, slack, got.Stats, want.Stats)
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
	order := []string{"baseline", "snake", "isolated-snake", "decoupled-mta", "snake", "baseline", "ideal"}
	mechs := reuseMechs()
	for i, mech := range order {
		opt := Options{Config: testCfg(), NewPrefetcher: mechs[mech]}
		want, err := runOutcome(NewEngine(), k, opt, "")
		if err != nil {
			t.Fatal(err)
		}
		got, err := runOutcome(en, k, opt, mech)
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
	opt := Options{Config: testCfg(), NewPrefetcher: func(int) prefetch.Prefetcher {
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
// rings, stats shards, route views, scatter scratch, epoch bitsets) are all
// reused in place. The bound leaves headroom for the Result copy and the
// prefetcher's small per-run maps; a fresh engine costs thousands of
// allocations per run (the fresh rows of BenchmarkSimulatorThroughput). It
// is checked on the tiny shape and on a mid-scale 8-SM lps shape.
func TestRepeatedRunAllocs(t *testing.T) {
	shapes := []struct {
		name string
		sc   workloads.Scale
		cfg  config.GPU
	}{
		{"tiny", workloads.Tiny(), testCfg()},
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
		t.Logf("%s: steady-state allocs/run: %.1f", sh.name, serial)
		if raceEnabled {
			// The race detector allocates for its own bookkeeping; the loop
			// above still provides race coverage of the reuse paths.
			continue
		}
		const bound = 64
		if serial > bound {
			t.Errorf("%s: steady-state reuse allocates %.1f/run, want <= %d", sh.name, serial, bound)
		}
	}
}
