package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/workloads"
)

// testCfg is the 4-SM, 8-partition machine the equivalence tests share.
func testCfg() config.GPU { return config.Scaled(4, 8) }

// slackCells are the SlackWindow settings the equivalence matrices sweep:
// the per-cycle reference, a short epoch, and the auto window (the
// config-derived maximum).
var slackCells = []int{1, 2, 0}

// testMechs is the mechanism spread for the equivalence matrix: the baseline
// (no prefetcher), the stateful chain prefetcher (Snake), the simpler MTA,
// and the magic oracle — together they exercise every cross-boundary path
// (demand misses, staged prefetches, Snake's per-cycle throttle, magic
// fills that bypass the memory system).
func testMechs() map[string]func(int) prefetch.Prefetcher {
	return map[string]func(int) prefetch.Prefetcher{
		"baseline": nil,
		"snake":    func(int) prefetch.Prefetcher { return core.NewSnake() },
		"mta":      func(int) prefetch.Prefetcher { return prefetch.NewMTA() },
		"ideal":    func(int) prefetch.Prefetcher { return prefetch.NewIdeal() },
	}
}

// TestParallelEquivalenceMatrix is the epoch loop's core claim: for every
// workload and mechanism, the Result — totals and per-SM breakdowns — at a
// short epoch (SlackWindow 2) and at the auto window (the config-derived
// maximum) is bit-identical to the per-cycle reference (SlackWindow 1).
func TestParallelEquivalenceMatrix(t *testing.T) {
	for _, name := range workloads.Names() {
		k, err := workloads.Build(name, workloads.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		for mech, pf := range testMechs() {
			opt := Options{Config: testCfg(), NewPrefetcher: pf, SlackWindow: 1}
			want, err := Run(k, opt)
			if err != nil {
				t.Fatalf("%s/%s per-cycle: %v", name, mech, err)
			}
			for _, slack := range slackCells[1:] {
				opt.SlackWindow = slack
				got, err := Run(k, opt)
				if err != nil {
					t.Fatalf("%s/%s slack=%d: %v", name, mech, slack, err)
				}
				// Result.Slack echoes the requested window, which differs
				// across cells by design; the oracle is the simulation
				// output.
				got.Slack = want.Slack
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: slack=%d diverges from per-cycle\n got:  %+v\n want: %+v",
						name, mech, slack, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestParallelRepeatDeterminism re-runs the same configuration and demands
// identical Results, per-SM blocks included.
func TestParallelRepeatDeterminism(t *testing.T) {
	k, _ := workloads.Build("hotspot", workloads.Tiny())
	opt := Options{
		Config:        testCfg(),
		NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
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

// goroutineCtx is a countdownCtx that also records the process's goroutine
// count at every poll — polls happen inside an epoch's drain phase, so the
// count is taken mid-run.
type goroutineCtx struct {
	countdownCtx
	seen []int
}

func (c *goroutineCtx) Err() error {
	c.seen = append(c.seen, runtime.NumGoroutine())
	return c.countdownCtx.Err()
}

// TestParallelCancellationStopsWorkers cancels a run at the auto window from
// inside an epoch's drain phase: the run must return the context error
// naming the cycle, must stay on the caller's goroutine throughout (the
// goroutine count at every poll equals the count before the run), and a
// following run must succeed.
func TestParallelCancellationStopsWorkers(t *testing.T) {
	k := workloads.StreamMicro(workloads.Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 32}, 4096)
	before := runtime.NumGoroutine()
	ctx := &goroutineCtx{countdownCtx: countdownCtx{Context: context.Background(), ok: 1}}
	_, err := Run(k, Options{Config: testCfg(), Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "aborted at cycle") {
		t.Errorf("err = %q, want the abort cycle named", err)
	}
	// The pre-flight check polls once; the in-loop polls follow.
	if len(ctx.seen) != ctx.ok+1 {
		t.Fatalf("%d polls, want %d", len(ctx.seen), ctx.ok+1)
	}
	for i, n := range ctx.seen {
		if n != before {
			t.Errorf("poll %d: %d goroutines, want %d: a run must not start goroutines", i, n, before)
		}
	}
	if _, err := Run(k, Options{Config: testCfg()}); err != nil {
		t.Fatalf("run after cancelled run: %v", err)
	}
}

// TestParallelStoreMergeOrder pins the (cycle, smID, seq) egress merge: a
// workload with store traffic must produce identical store/interconnect
// accounting at the auto window and per cycle. (Covered by the matrix too;
// this narrow test fails more readably if the merge order regresses.)
func TestParallelStoreMergeOrder(t *testing.T) {
	k, err := workloads.Build("srad", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Config: testCfg(), SlackWindow: 1}
	want, err := Run(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Stores == 0 {
		t.Fatal("stencil workload issued no stores; pick a store-heavy kernel")
	}
	opt.SlackWindow = 0
	got, err := Run(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Stores != want.Stats.Stores || got.Stats.IcntBytes != want.Stats.IcntBytes {
		t.Errorf("store accounting diverged: stores %d vs %d, icnt bytes %d vs %d",
			got.Stats.Stores, want.Stats.Stores, got.Stats.IcntBytes, want.Stats.IcntBytes)
	}
}
