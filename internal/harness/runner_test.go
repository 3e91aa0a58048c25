package harness

import (
	"context"
	"strings"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
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
			"5c529524b6bea5308242dc1bd7014ec1af401d9b7ded364eebc24be70146a98c"},
		{"custom snake", RunKey{Bench: "lps", Mech: "snake:custom", Snake: &custom, GPU: gpu, Scale: scale},
			"f11bdfd7a86380b19aacc612cfe6d97c4e1b33514e47373000565980e8bdddef"},
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
