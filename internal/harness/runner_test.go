package harness

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// TestRunnerRetriesAfterCancel: a run aborted by its context must not poison
// the cache — the old sync.Once memoization cached the first error forever.
func TestRunnerRetriesAfterCancel(t *testing.T) {
	r := tinyRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, "lps", "baseline"); err == nil {
		t.Fatal("canceled run succeeded")
	}
	st, err := r.Run("lps", "baseline")
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if st == nil || st.Insts == 0 {
		t.Fatal("retry returned empty stats")
	}
}

// TestRunnerDoesNotCacheFailures: two calls with a bad mechanism both fail,
// as does a call with an unknown benchmark, and none leaves a cache entry.
func TestRunnerDoesNotCacheFailures(t *testing.T) {
	r := tinyRunner()
	for i := 0; i < 2; i++ {
		if _, err := r.Run("lps", "bogus"); err == nil {
			t.Fatalf("call %d: unknown mechanism accepted", i)
		}
	}
	if _, err := r.Run("nope", "snake"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	r.mu.Lock()
	n := len(r.cache)
	r.mu.Unlock()
	if n != 0 {
		t.Errorf("failed runs left %d cache entries", n)
	}
}

// doneSignalCtx closes waiting the first time Done is called: its caller
// has reached a select on it — memoize's wait on another caller's fill, or
// the budget's Acquire.
type doneSignalCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newDoneSignalCtx(ctx context.Context) *doneSignalCtx {
	return &doneSignalCtx{Context: ctx, waiting: make(chan struct{})}
}

func (c *doneSignalCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestRunnerWaiterRetriesAfterFailedFill: when the caller filling a key
// fails, a concurrent caller waiting on that fill must retry under its own
// context and succeed, not return the first caller's error. The first
// caller's fill fails because its context is canceled while it waits for
// the budget's only slot, which the test holds; the second caller is
// already blocked on the fill by then.
func TestRunnerWaiterRetriesAfterFailedFill(t *testing.T) {
	r := tinyRunner()
	r.Budget = NewBudget(1)
	if err := r.Budget.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	base, cancelA := context.WithCancel(context.Background())
	ctxA := newDoneSignalCtx(base)
	errA := make(chan error, 1)
	go func() {
		_, err := r.RunCtx(ctxA, "lps", "baseline")
		errA <- err
	}()
	<-ctxA.waiting // A holds the cache entry and waits for the slot

	ctxB := newDoneSignalCtx(context.Background())
	type out struct {
		st  *stats.Sim
		err error
	}
	outB := make(chan out, 1)
	go func() {
		st, err := r.RunCtx(ctxB, "lps", "baseline")
		outB <- out{st, err}
	}()
	<-ctxB.waiting // B waits on A's fill

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("first caller: err = %v, want context.Canceled", err)
	}
	r.Budget.Release()
	b := <-outB
	if b.err != nil {
		t.Fatalf("waiting caller inherited the failed fill: %v", b.err)
	}
	if b.st == nil || b.st.Insts == 0 {
		t.Fatal("waiting caller returned empty stats")
	}
}

// TestPrefillJoinsErrors: Prefill must report every failing cell, not just
// an arbitrary one.
func TestPrefillJoinsErrors(t *testing.T) {
	r := tinyRunner()
	err := r.Prefill([]string{"cp", "lps"}, []string{"bogus"})
	if err == nil {
		t.Fatal("Prefill with unknown mechanism succeeded")
	}
	for _, want := range []string{"cp/bogus", "lps/bogus"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestRunKeyHash pins the content-address semantics: identical inputs agree,
// any differing input diverges.
func TestRunKeyHash(t *testing.T) {
	base := RunKey{Bench: "lps", Mech: "snake", GPU: config.Scaled(4, 64), Scale: workloads.DefaultScale()}
	if base.Hash() != base.Hash() {
		t.Fatal("hash not deterministic")
	}
	if len(base.Hash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(base.Hash()))
	}
	variants := []RunKey{base, base, base, base}
	variants[0].Bench = "cp"
	variants[1].Mech = "baseline"
	variants[2].GPU.NumSM = 8
	variants[3].Scale.CTAs = 7
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d collides with base", i)
		}
	}
}

// TestRunKeyGoldenHashes pins the hex content address of two keys. Every
// cached result, on disk and on peers, and snaked's per-key records are found
// by these hashes, so a change to key derivation must be deliberate: it
// fails here first (bump runKeyVersion and update the pins together).
func TestRunKeyGoldenHashes(t *testing.T) {
	gpu, scale := config.Scaled(4, 64), workloads.DefaultScale()
	custom := core.Defaults()
	custom.TailEntries, custom.ChainDepth = 5, 4
	for _, tc := range []struct {
		name string
		key  RunKey
		want string
	}{
		{"registry mechanism", RunKey{Bench: "lps", Mech: "snake", GPU: gpu, Scale: scale},
			"e2480cb13b91087247007230b86225a879754886cb115af6ce197f1bcd5b86b6"},
		{"custom snake", RunKey{Bench: "lps", Mech: "snake:custom", Snake: &custom, GPU: gpu, Scale: scale},
			"d1f1a92045e5aefbffdcbc45523f94baee02843c07cc6b1b1b75826edfc5d145"},
	} {
		if got := tc.key.Hash(); got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRunnerSharesInFlight: concurrent identical runs produce one memoized
// result object.
func TestRunnerSharesInFlight(t *testing.T) {
	r := tinyRunner()
	type out struct {
		st  interface{}
		err error
	}
	ch := make(chan out, 8)
	for i := 0; i < 8; i++ {
		go func() {
			st, err := r.Run("cp", "baseline")
			ch <- out{st, err}
		}()
	}
	var first interface{}
	for i := 0; i < 8; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		if first == nil {
			first = o.st
		} else if o.st != first {
			t.Fatal("concurrent runs returned distinct result objects")
		}
	}
}

// TestSimulateRetainsOnlyStats pins what a kept result costs: the *stats.Sim
// that Runner.Simulate returns is every memoized cell's, snaked record's and
// store entry's payload, so it must keep alive only its stats block, not a
// per-SM breakdown that grows with the machine. On config.Default()'s 80 SMs
// a per-SM copy would add about 21 KB per result.
func TestSimulateRetainsOnlyStats(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	const (
		kept   = 200
		perRun = 512 // bytes of live heap per kept result
	)
	key, err := RunKey{Bench: "lps", Mech: "baseline", GPU: config.Default(), Scale: workloads.Tiny()}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Engines: NewEnginePool()}
	if _, err := r.Simulate(context.Background(), key); err != nil { // intern the kernel
		t.Fatal(err)
	}
	// Two collections empty the engine pool at both reads, so only what the
	// results hold differs between them.
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	results := make([]*stats.Sim, kept)
	before := liveHeap()
	for i := range results {
		if results[i], err = r.Simulate(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(results)
	var grew uint64
	if after > before {
		grew = (after - before) / kept
	}
	t.Logf("%d kept results: live heap %d → %d B, %d B per result", kept, before, after, grew)
	if grew > perRun {
		t.Errorf("each kept result holds %d B of live heap, want ≤ %d B", grew, perRun)
	}
}
