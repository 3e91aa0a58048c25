package cache

import (
	"math"
	"math/rand"
	"testing"
)

// TestLineSetMatchesMap drives LineSet and a built-in map with the same
// random put/has/clear stream. Keys mix dense runs inside a few pages,
// lines scattered over many pages (so the page table and the word slab
// grow), and lines at both ends of the uint64 range, where a prefetch
// address that wrapped around lands.
func TestLineSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := func() uint64 {
			switch rng.Intn(5) {
			case 0:
				return uint64(rng.Intn(3 * pageLines))
			case 1:
				return uint64(rng.Intn(1<<20)) << pageBits
			case 2:
				return math.MaxUint64 - uint64(rng.Intn(2*pageLines))
			case 3:
				return uint64(rng.Intn(64)) << 58
			default:
				return rng.Uint64()
			}
		}
		var ls LineSet
		ref := map[uint64]bool{}
		check := func(step int) {
			for k := range ref {
				if !ls.Has(k) {
					t.Fatalf("seed %d step %d: Has(%#x) = false after Put", seed, step, k)
				}
			}
		}
		for step := 0; step < 40000; step++ {
			k := key()
			switch r := rng.Intn(100); {
			case r < 50:
				ls.Put(k)
				ref[k] = true
			case r < 99:
				if got := ls.Has(k); got != ref[k] {
					t.Fatalf("seed %d step %d: Has(%#x) = %v, want %v", seed, step, k, got, ref[k])
				}
				// The neighbours share k's word or page; a stray bit shows.
				for _, n := range []uint64{k - 1, k + 1, k ^ 64, k ^ pageLines} {
					if got := ls.Has(n); got != ref[n] {
						t.Fatalf("seed %d step %d: Has(%#x) = %v, want %v", seed, step, n, got, ref[n])
					}
				}
			default:
				if rng.Intn(10) == 0 {
					check(step)
					ls.Clear()
					clear(ref)
				}
			}
		}
		check(-1)
	}

	// The extreme lines each get their own page and never alias.
	var ls LineSet
	for _, k := range []uint64{0, math.MaxUint64} {
		ls.Put(k)
	}
	for _, k := range []uint64{1, math.MaxUint64 - 1, 1 << pageBits, math.MaxUint64 >> pageBits} {
		if ls.Has(k) {
			t.Errorf("Has(%#x) = true; only 0 and MaxUint64 were put", k)
		}
	}
	if !ls.Has(0) || !ls.Has(math.MaxUint64) {
		t.Error("Has lost 0 or MaxUint64")
	}

	// A set that has held n pages refills to n pages after Clear without
	// allocating.
	ls.Clear()
	fill := func() {
		for i := uint64(0); i < 200; i++ {
			ls.Put(i*pageLines*7 + i)
			ls.Put(math.MaxUint64 - i*pageLines)
		}
		ls.Clear()
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("refilling a cleared set allocated %.1f times per run, want 0", n)
	}
}
