package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/profiling"
	"snake/internal/workloads"
)

// slackMechs widens testMechs to the full mechanism spread the slack property
// test sweeps: every distinct cross-boundary traffic shape (demand-only,
// chained prefetch, history tables, tree/graph walkers, magic fills).
func slackMechs() map[string]func(int) prefetch.Prefetcher {
	m := testMechs()
	m["tree"] = func(int) prefetch.Prefetcher { return prefetch.NewTree() }
	m["interwarp"] = func(int) prefetch.Prefetcher { return prefetch.NewInterWarp() }
	return m
}

// TestSlackHorizonBoundsObservedLatencies is the empirical half of the slack
// soundness argument. The config audit (config.SlackBound) proves no message
// can cross between the SM side and the memory side in fewer than bound
// cycles; the engine stamps every port crossing in real runs — all
// benchmarks × six mechanisms — and this test checks the derived bound
// against the smallest latency any message actually exhibited (the engine's
// minReqLat, minRespLat and each partition's minRespLat after the run):
//
//   - response delivery (L2 → SM fill) must take ≥ bound cycles,
//   - L2 data-ready (partition arrival → response sendable) must take
//     ≥ bound cycles,
//   - request delivery is injected with the horizon already spent as the
//     front segment of its interconnect flight (see drainMissQueues), so its
//     residual latency plus that front segment must still be ≥ bound, and
//     the residual itself must be ≥ 1 (arrival strictly in the future).
func TestSlackHorizonBoundsObservedLatencies(t *testing.T) {
	cfg := testCfg()
	bound := int64(cfg.SlackBound())
	horizon := bound // the full audit bound — no fixed cap
	if horizon < 1 {
		t.Fatalf("config-derived horizon %d; audit should guarantee >= 1", horizon)
	}
	var sawReq, sawResp, sawL2 bool
	for wi, window := range slackWindowSweep(bound) {
		// One full benchmark × mechanism matrix at auto (the wide horizon);
		// the explicit window sweep reruns a single benchmark per window —
		// the audit floors are schedule properties, not workload properties.
		names := workloads.Names()
		if window != 0 {
			names = names[wi%len(names) : wi%len(names)+1]
		}
		for _, name := range names {
			k, err := workloads.Build(name, workloads.Tiny())
			if err != nil {
				t.Fatal(err)
			}
			for mech, pf := range slackMechs() {
				en := NewEngine()
				if _, err := en.Run(k, WithSlackWindow(Options{Config: cfg, NewPrefetcher: pf}, int(window))); err != nil {
					t.Fatalf("%s/%s: %v", name, mech, err)
				}
				e := en.e
				minL2 := latencyUnobserved
				for _, p := range e.parts {
					minL2 = min(minL2, p.minRespLat)
				}
				if e.minRespLat != latencyUnobserved {
					sawResp = true
					if e.minRespLat < bound {
						t.Errorf("%s/%s w=%d: response delivered in %d cycles, below the derived bound %d",
							name, mech, window, e.minRespLat, bound)
					}
				}
				if minL2 != latencyUnobserved {
					sawL2 = true
					if minL2 < bound {
						t.Errorf("%s/%s w=%d: L2 response ready in %d cycles, below the derived bound %d",
							name, mech, window, minL2, bound)
					}
				}
				if e.minReqLat != latencyUnobserved {
					sawReq = true
					if e.minReqLat < 1 {
						t.Errorf("%s/%s w=%d: request arrival only %d cycles ahead; horizon compensation overshot",
							name, mech, window, e.minReqLat)
					}
					if got := e.minReqLat + horizon - 1; got < bound {
						t.Errorf("%s/%s w=%d: request end-to-end delivery %d cycles, below the derived bound %d",
							name, mech, window, got, bound)
					}
				}
			}
		}
	}
	if !sawReq || !sawResp || !sawL2 {
		t.Fatalf("audit never observed some path (req=%v resp=%v l2=%v); the property test is vacuous",
			sawReq, sawResp, sawL2)
	}
}

// slackWindowSweep is the satellite window grid: auto plus
// {1, 2, bound/2, bound, bound+1} — per-cycle, a narrow window, a mid-width
// window, the full horizon, and an oversized request that must clamp.
func slackWindowSweep(bound int64) []int64 {
	return []int64{0, 1, 2, bound / 2, bound, bound + 1}
}

// TestSlackCancellationMidEpoch aborts a bounded-slack run from inside an
// epoch's drain phase and demands (a) the abort surfaces as the context
// error, and (b) the engine comes back clean: reusing it afterwards yields
// results bit-identical to a fresh engine's.
func TestSlackCancellationMidEpoch(t *testing.T) {
	// A kernel long enough that the engine reaches the second poll boundary
	// (cycle ctxCheckInterval) while work is still in flight.
	k := workloads.StreamMicro(workloads.Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 32}, 4096)
	bound := int64(testCfg().SlackBound())
	for _, window := range []int64{2, bound, bound + 1} {
		opt := WithSlackWindow(Options{Config: testCfg()}, int(window))
		en := NewEngine()
		// countdownCtx (loop_test.go) cancels deterministically on the second
		// poll — a poll site inside an epoch's drain phase, where a timer
		// race could not guarantee placement.
		ctx := &countdownCtx{Context: context.Background(), ok: 1}
		abortOpt := opt
		abortOpt.Context = ctx
		if _, err := en.Run(k, abortOpt); !errors.Is(err, context.Canceled) {
			t.Fatalf("w=%d: aborted run returned %v, want context.Canceled", window, err)
		}
		if ctx.calls <= ctx.ok {
			t.Fatalf("w=%d: context polled %d times; cancellation never fired", window, ctx.calls)
		}
		got, err := runOutcome(en, k, opt, "")
		if err != nil {
			t.Fatal(err)
		}
		want, err := runOutcome(NewEngine(), k, opt, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%d: engine reused after mid-epoch abort diverges from fresh engine\n got:  %+v\n want: %+v",
				window, got.Stats, want.Stats)
		}
	}
}

// TestSlackConflictFailsRun pins the one conflict behaviour, in every build:
// an event maturing inside its own epoch is an invariant violation, so the
// run that hits it returns an error instead of reporting stats from a
// schedule it cannot trust. The conflict is forced by dropping the horizon
// below the L2 latency floor after construction, so the first response
// merged lands inside its own epoch; a recycled engine starts clean.
func TestSlackConflictFailsRun(t *testing.T) {
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Config: testCfg()}
	e := freshEngine(k, opt)
	e.horizon = 1
	err = e.run()
	if err == nil || !strings.Contains(err.Error(), "slack conflict") {
		t.Fatalf("run with a horizon below the L2 latency floor returned %v, want a slack conflict", err)
	}
	first := e.slackErr
	e.slackConflict(1, 2)
	if e.slackErr != first {
		t.Error("a later conflict replaced the first one's error")
	}
	e.reinit(k, opt, false)
	if e.slackErr != nil {
		t.Fatalf("reinit kept the previous run's conflict: %v", e.slackErr)
	}
	if err := e.run(); err != nil {
		t.Fatalf("recycled engine failed after a conflicted run: %v", err)
	}
}

// TestInitSlackClamps pins the slack numbers' derivation: the horizon is
// the full config audit bound (no fixed cap), the turnaround is
// min(horizon, TurnaroundCap), and the epoch length is the slack window
// clamped into [1, horizon] with 0 (and any out-of-range request) meaning
// auto.
func TestInitSlackClamps(t *testing.T) {
	cfg := config.Scaled(2, 8)
	bound := int64(cfg.SlackBound())
	if bound <= TurnaroundCap {
		t.Fatalf("config bound %d not wide; the wide-horizon cases below are vacuous", bound)
	}
	wantTurn := int64(TurnaroundCap)
	if h, turn := SlackSchedule(cfg); h != bound || turn != wantTurn {
		t.Errorf("SlackSchedule = (%d, %d), want (%d, %d)", h, turn, bound, wantTurn)
	}
	cases := []struct {
		window int
		want   int64
	}{
		{0, bound},
		{-3, bound},
		{1, 1},
		{2, 2},
		{int(bound / 2), bound / 2},
		{int(bound), bound},
		{int(bound) + 1, bound},
		{1 << 20, bound},
	}
	for _, c := range cases {
		e := &engine{cfg: cfg, opt: WithSlackWindow(Options{}, c.window)}
		e.initSlack()
		if e.horizon != bound {
			t.Errorf("window=%d: horizon=%d, want the full bound %d", c.window, e.horizon, bound)
		}
		if e.turn != wantTurn {
			t.Errorf("window=%d: turn=%d, want %d", c.window, e.turn, wantTurn)
		}
		if e.slackMax != c.want {
			t.Errorf("window=%d: slackMax=%d, want %d", c.window, e.slackMax, c.want)
		}
		if e.slackErr != nil {
			t.Errorf("window=%d: slackErr not reset", c.window)
		}
	}
}

// TestSlackWindowSweepEquivalence is the wide-horizon equivalence matrix:
// runs at every sweep window — including the full bound and an oversized
// request — must be bit-identical to the per-cycle
// reference.
func TestSlackWindowSweepEquivalence(t *testing.T) {
	cfg := testCfg()
	bound := int64(cfg.SlackBound())
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Config: cfg, NewPrefetcher: testMechs()["snake"]}
	refK, err := Run(k, WithSlackWindow(opt, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range slackWindowSweep(bound) {
		en := NewEngine()
		got, err := en.Run(k, WithSlackWindow(opt, int(window)))
		if err != nil {
			t.Fatalf("w=%d: %v", window, err)
		}
		if !reflect.DeepEqual(got.Stats, refK.Stats) {
			t.Errorf("w=%d: kernel stats diverge from per-cycle reference", window)
		}
		if e := en.e; e.horizon != bound || e.slackMax < 1 || e.slackMax > bound {
			t.Errorf("w=%d: horizon=%d window=%d, out of range", window, e.horizon, e.slackMax)
		}
	}
}

// TestSlackBarrierDensity pins how well bounded-slack ticking amortizes the
// epoch merge: epochs per thousand simulated cycles for lps, mum and nw
// under Snake on the mid-scale 8-SM machine (24×8×8) at the auto window —
// the shape `snakebench -phases` reports. Epoch cuts depend only on
// simulated state, so the counts are deterministic; a change that silently
// shortens epochs would multiply the per-epoch drain and merge cost
// without moving any correctness test. A density may exceed its recorded
// value by at most 1.2× or 3 epochs/kcycle, whichever is looser.
func TestSlackBarrierDensity(t *testing.T) {
	recorded := []struct {
		bench   string
		perKcyc float64
	}{{"lps", 60.9}, {"mum", 16.9}, {"nw", 35.5}}
	for _, r := range recorded {
		k, err := workloads.Build(r.bench, workloads.Scale{CTAs: 24, WarpsPerCTA: 8, Iters: 8})
		if err != nil {
			t.Fatal(err)
		}
		var prof profiling.Phases
		res, err := Run(k, Options{
			Config:        config.Scaled(8, 48),
			NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
			PhaseProfile:  &prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := 1000 * float64(prof.Barriers()) / float64(res.Stats.Cycles)
		t.Logf("%s: %d epochs over %d cycles = %.2f/kcycle (recorded %.1f)", r.bench, prof.Barriers(), res.Stats.Cycles, got, r.perKcyc)
		if got > r.perKcyc*1.2 && got-r.perKcyc > 3 {
			t.Errorf("%s: %.2f epochs/kcycle vs recorded %.1f (%.2fx, bound 1.2x and +3)", r.bench, got, r.perKcyc, got/r.perKcyc)
		}
	}
}
