package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// parCfg has enough SMs that Parallelism=4 actually shards the machine.
func parCfg() config.GPU { return config.Scaled(4, 8) }

// parMechs is the mechanism spread for the equivalence matrix: the baseline
// (no prefetcher), the stateful chain prefetcher (Snake), the simpler MTA,
// and the magic oracle — together they exercise every cross-boundary path
// (demand misses, staged prefetches, Snake's per-cycle throttle, magic
// fills that bypass the memory system).
func parMechs() map[string]func(int) prefetch.Prefetcher {
	return map[string]func(int) prefetch.Prefetcher{
		"baseline": nil,
		"snake":    func(int) prefetch.Prefetcher { return core.NewSnake() },
		"mta":      func(int) prefetch.Prefetcher { return prefetch.NewMTA() },
		"ideal":    func(int) prefetch.Prefetcher { return prefetch.NewIdeal() },
	}
}

// TestParallelEquivalenceMatrix is the tentpole's core claim: for every
// workload and mechanism, the executor's Result — totals and per-SM
// breakdowns — is bit-identical to per-cycle serial execution, at every
// Parallelism value and every SlackWindow setting (1 = barrier per cycle,
// 2 = a short epoch, 0 = auto, the config-derived maximum).
func TestParallelEquivalenceMatrix(t *testing.T) {
	for _, name := range workloads.Names() {
		k, err := workloads.Build(name, workloads.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		for mech, pf := range parMechs() {
			opt := Options{Config: parCfg(), NewPrefetcher: pf}
			opt.Parallelism = 1
			opt.SlackWindow = 1
			want, err := Run(k, opt)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", name, mech, err)
			}
			for _, slack := range []int{1, 2, 0} {
				// 12 = NumSM (4) + L2Partitions (8): every work unit, SM
				// shard or memory partition, gets its own worker.
				for _, p := range []int{1, 4, 12} {
					if slack == 1 && p == 1 {
						continue // the reference itself
					}
					opt.Parallelism = p
					opt.SlackWindow = slack
					got, err := Run(k, opt)
					if err != nil {
						t.Fatalf("%s/%s P=%d slack=%d: %v", name, mech, p, slack, err)
					}
					// Result.Slack echoes the requested window, which
					// differs across cells by design; the oracle is the
					// simulation output.
					got.Slack = want.Slack
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s: P=%d slack=%d diverges from serial\n got:  %+v\n want: %+v",
							name, mech, p, slack, got.Stats, want.Stats)
					}
				}
			}
		}
	}
}

// TestParallelRepeatDeterminism re-runs the same parallel configuration and
// demands identical output: scheduling noise across worker goroutines must
// never reach the results.
func TestParallelRepeatDeterminism(t *testing.T) {
	k, _ := workloads.Build("hotspot", workloads.Tiny())
	opt := Options{
		Config:        parCfg(),
		NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
		Parallelism:   4,
	}
	first, err := Run(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(k, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("repeat %d produced different results", i)
		}
	}
}

// TestParallelSequenceEquivalence covers the multi-kernel path: the shard
// group persists across kernels of one sequence and the warm-state carryover
// must not depend on Parallelism.
func TestParallelSequenceEquivalence(t *testing.T) {
	mk := func(name string) *trace.Kernel {
		k, err := workloads.Build(name, workloads.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	kernels := []*trace.Kernel{mk("lps"), mk("hotspot"), mk("lps")}
	run := func(p int) *SequenceResult {
		opt := SequenceOptions{Options: Options{
			Config:        parCfg(),
			NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
			Parallelism:   p,
		}}
		res, err := RunSequence(kernels, opt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		return res
	}
	want := run(1)
	got := run(4)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel sequence diverges from serial\n got:  %+v\n want: %+v", got.Stats, want.Stats)
	}
}

// TestParallelCancellationStopsWorkers aborts a parallel run via context and
// checks the error path: run() must return the cancellation error and tear
// the worker group down (the race detector and goroutine-leak-sensitive
// follow-up runs in this package would catch a stuck worker).
func TestParallelCancellationStopsWorkers(t *testing.T) {
	k := workloads.StreamMicro(workloads.Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 32}, 4096)
	ctx := &countdownCtx{Context: context.Background(), ok: 0}
	_, err := Run(k, Options{Config: parCfg(), Context: ctx, Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The engine must stay reusable after a torn-down run: a fresh run on the
	// same goroutine succeeds.
	if _, err := Run(k, Options{Config: parCfg(), Parallelism: 4}); err != nil {
		t.Fatalf("run after cancelled run: %v", err)
	}
}

// TestParallelOptionsClamp pins the Parallelism defaulting rules: zero and
// negative mean serial, a request wider than the machine clamps to one
// worker per work unit (SM shards plus L2 partitions).
func TestParallelOptionsClamp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1},
		{-3, 1},
		{1, 1},
		{4, 4},
		{64, parCfg().NumSM + parCfg().L2Partitions},
	} {
		opt := Options{Config: parCfg(), Parallelism: tc.in}.withDefaults()
		if opt.Parallelism != tc.want {
			t.Errorf("Parallelism %d defaulted to %d, want %d", tc.in, opt.Parallelism, tc.want)
		}
	}
}

// TestParallelStoreMergeOrder pins the (smID, seq) egress merge: a workload
// with store traffic must produce identical store/interconnect accounting in
// serial and parallel runs. (Covered by the matrix too; this narrow test
// fails more readably if the merge order regresses.)
func TestParallelStoreMergeOrder(t *testing.T) {
	k, err := workloads.Build("srad", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Config: parCfg()}
	opt.Parallelism = 1
	want, err := Run(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Stores == 0 {
		t.Fatal("stencil workload issued no stores; pick a store-heavy kernel")
	}
	opt.Parallelism = 4
	got, err := Run(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Stores != want.Stats.Stores || got.Stats.IcntBytes != want.Stats.IcntBytes {
		t.Errorf("store accounting diverged: stores %d vs %d, icnt bytes %d vs %d",
			got.Stats.Stores, want.Stats.Stores, got.Stats.IcntBytes, want.Stats.IcntBytes)
	}
}
