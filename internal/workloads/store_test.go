package workloads

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"snake/internal/trace"
)

// TestStoreInternsPerKey checks the interning contract: repeated lookups of
// one (bench, Scale) return the identical kernel pointer from a single
// build, while distinct benches or scales build separately.
func TestStoreInternsPerKey(t *testing.T) {
	s := NewStore()
	k1, err := s.Kernel("lps", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.Kernel("lps", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("second lookup returned a different kernel pointer")
	}
	if got := s.Builds(); got != 1 {
		t.Errorf("Builds() = %d after two lookups of one key, want 1", got)
	}
	if _, err := s.Kernel("mum", Tiny()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Kernel("lps", Scale{CTAs: 2, WarpsPerCTA: 2, Iters: 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.Builds(); got != 3 {
		t.Errorf("Builds() = %d across three distinct keys, want 3", got)
	}
	if got := s.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
}

// TestStoreRejectsZeroScale: a scale is taken as given, so the zero Scale
// is not DefaultScale. Build and Kernel return Validate's error instead of
// generating from it, and the store keeps nothing for it.
func TestStoreRejectsZeroScale(t *testing.T) {
	if _, err := Build("cp", Scale{}); err == nil || !strings.Contains(err.Error(), "CTAs 0") {
		t.Errorf("Build with Scale{}: %v, want an error naming CTAs 0", err)
	}
	s := NewStore()
	if _, err := s.Kernel("cp", Scale{}); err == nil || !strings.Contains(err.Error(), "CTAs 0") {
		t.Errorf("Kernel with Scale{}: %v, want an error naming CTAs 0", err)
	}
	if s.Builds() != 0 || s.Len() != 0 {
		t.Errorf("a rejected scale left %d builds and %d entries", s.Builds(), s.Len())
	}
}

// TestStoreUnknownBenchNotCached checks the failure path: an unknown
// benchmark errors every time without growing the store.
func TestStoreUnknownBenchNotCached(t *testing.T) {
	s := NewStore()
	for i := 0; i < 2; i++ {
		if _, err := s.Kernel("no-such-bench", Tiny()); err == nil {
			t.Fatal("unknown benchmark did not error")
		}
	}
	if got := s.Len(); got != 0 {
		t.Errorf("failed builds left %d entries in the store", got)
	}
	if got := s.Builds(); got != 0 {
		t.Errorf("Builds() = %d after only failures, want 0", got)
	}
}

// TestStoreConcurrentSingleflight hammers one key from many goroutines: all
// callers must get the same kernel from exactly one build. Run under -race
// this also checks the entry-publication discipline.
func TestStoreConcurrentSingleflight(t *testing.T) {
	s := NewStore()
	const n = 16
	kernels := make([]interface{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := s.Kernel("hotspot", Tiny())
			if err != nil {
				t.Error(err)
				return
			}
			kernels[i] = k
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if kernels[i] != kernels[0] {
			t.Fatalf("goroutine %d got a different kernel", i)
		}
	}
	if got := s.Builds(); got != 1 {
		t.Errorf("Builds() = %d under %d concurrent callers, want 1", got, n)
	}
}

// TestStoreMatchesBuild checks that interned kernels are the same content a
// direct Build produces — interning changes sharing, never the trace.
func TestStoreMatchesBuild(t *testing.T) {
	s := NewStore()
	got, err := s.Kernel("nw", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build("nw", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("interned kernel differs from a direct Build")
	}
}

// TestStoreProgramsExactLength pins that an interned kernel holds no spare
// instruction capacity: the store keeps every warp program for the life of
// the process, and append-doubling would leave up to half of each program's
// array unused.
func TestStoreProgramsExactLength(t *testing.T) {
	s := NewStore()
	check := func(what string, k *trace.Kernel) {
		for ci, cta := range k.CTAs {
			for wi, w := range cta.Warps {
				if cap(w.Insts) != len(w.Insts) {
					t.Fatalf("%s: CTA %d warp %d has cap %d for %d instructions",
						what, ci, wi, cap(w.Insts), len(w.Insts))
				}
			}
		}
	}
	for _, name := range Names() {
		k, err := s.Kernel(name, Tiny())
		if err != nil {
			t.Fatal(err)
		}
		check(name, k)
	}
}
