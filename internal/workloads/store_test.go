package workloads

import (
	"reflect"
	"runtime"
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
// instruction capacity and one static table: the store keeps every warp
// program for the life of the process, and append-doubling would leave up to
// half of each program's arrays unused. Bytes counts capacity, so it equals
// the exact size only when every stream is exactly as long as its contents.
func TestStoreProgramsExactLength(t *testing.T) {
	s := NewStore()
	for _, name := range Names() {
		k, err := s.Kernel(name, Tiny())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := k.Bytes(), exactBytes(k); got != want {
			t.Errorf("%s holds %d instruction bytes, want exactly %d", name, got, want)
		}
	}
}

// exactBytes returns the bytes k's instructions need: one per instruction,
// eight per load or store address and eight per distinct static
// instruction.
func exactBytes(k *trace.Kernel) int64 {
	statics := make(map[trace.Static]bool)
	var n int64
	for _, cta := range k.CTAs {
		for wi := range cta.Warps {
			for _, in := range cta.Warps[wi].Insts() {
				n++
				if in.IsMem() {
					n += 8
				}
				statics[trace.Static{PC: in.PC, Stride: in.Stride, Lat: in.Lat, Op: in.Op}] = true
			}
		}
	}
	return n + 8*int64(len(statics))
}

// TestStoreBytesDefaultScale pins the trace store's size at DefaultScale:
// the 11 kernels hold 579,072 instructions, one byte each, 447,360 load and
// store addresses of 8 bytes, and 84 distinct static instructions of 8
// bytes in one table per kernel; Bytes counts each interned kernel once.
func TestStoreBytesDefaultScale(t *testing.T) {
	s := NewStore()
	insts := 0
	for _, name := range Names() {
		k, err := s.Kernel(name, DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		insts += k.TotalInsts()
	}
	if _, err := s.Kernel("lps", DefaultScale()); err != nil { // interned: adds nothing
		t.Fatal(err)
	}
	if insts != 579_072 {
		t.Errorf("%d instructions at DefaultScale, want 579072", insts)
	}
	const want = 579_072 + 447_360*8 + 84*8
	if got := s.Bytes(); got != want {
		t.Errorf("store holds %d instruction bytes, want %d", got, want)
	}
}

// TestStoreBytesMatchHeap: Bytes is the store's memory, not a model of it.
// After GC, interning the 11 DefaultScale kernels grows the live heap by
// Bytes to within 10%; what Bytes leaves out (warp, CTA and kernel headers)
// must stay small beside it.
func TestStoreBytesMatchHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the live heap")
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	s := NewStore()
	for _, name := range Names() {
		if _, err := s.Kernel(name, DefaultScale()); err != nil {
			t.Fatal(err)
		}
	}
	grew := liveHeap() - before
	runtime.KeepAlive(s)
	t.Logf("heap grew %d B; Bytes %d B", grew, s.Bytes())
	if d := float64(grew-s.Bytes()) / float64(s.Bytes()); d < -0.1 || d > 0.1 {
		t.Errorf("interning grew the live heap by %d B, %+.1f%% off Bytes' %d B", grew, 100*d, s.Bytes())
	}
}
