package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/workloads"
)

// TestFreshRunsDoNotLeak pins that a one-shot run leaves nothing behind:
// after every fresh Run, per cycle and at the auto window, plus a
// run cancelled mid-simulation, the goroutine count returns to its baseline,
// and across all of them the live heap after a collection stays flat. An
// engine that outlives its run — held by a goroutine, a finalizer or a
// pointer cycle — shows up here as hundreds of kilobytes per run.
func TestFreshRunsDoNotLeak(t *testing.T) {
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	pf := func(int) prefetch.Prefetcher { return core.NewSnake() }
	long := workloads.StreamMicro(workloads.Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 32}, 4096)

	type leg struct {
		name string
		run  func() error
	}
	var legs []leg
	for _, slack := range []int{1, 0} {
		opt := Options{Config: testCfg(), NewPrefetcher: pf, SlackWindow: slack}
		legs = append(legs, leg{"Run", func() error { _, err := Run(k, opt); return err }})
	}
	legs = append(legs, leg{"cancelled", func() error {
		// countdownCtx (loop_test.go) cancels on the second poll, inside the
		// cycle loop.
		ctx := &countdownCtx{Context: context.Background(), ok: 1}
		_, err := Run(long, Options{Config: testCfg(), Context: ctx})
		if !errors.Is(err, context.Canceled) {
			return errors.New("cancelled run did not return context.Canceled")
		}
		return nil
	}})

	// A goroutine that calls Done before it finishes exiting would trail
	// the run's return by a scheduler hand-off, so the check waits briefly.
	settles := func(baseline int) bool {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for _, l := range legs { // warm package-level state before the baselines
		if err := l.run(); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()
	before := liveHeap()
	const rounds = 10
	for i := 0; i < rounds; i++ {
		for j, l := range legs {
			if err := l.run(); err != nil {
				t.Fatalf("round %d leg %d (%s): %v", i, j, l.name, err)
			}
			if !settles(baseline) {
				t.Fatalf("round %d leg %d (%s): %d goroutines after the run, baseline %d",
					i, j, l.name, runtime.NumGoroutine(), baseline)
			}
		}
	}
	after := liveHeap()
	runs := uint64(rounds * len(legs))
	// A leaked engine costs hundreds of kilobytes at this shape; 16 KB/run
	// is far below that and far above allocator noise.
	const perRun = 16 << 10
	if after > before && after-before > runs*perRun {
		t.Fatalf("live heap grew %d KB over %d fresh runs (%d KB/run), want <= %d KB/run",
			(after-before)>>10, runs, (after-before)/runs>>10, perRun>>10)
	}
	t.Logf("live heap %d KB -> %d KB over %d fresh runs", before>>10, after>>10, runs)
}
