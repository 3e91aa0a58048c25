package cache

import (
	"math/rand"
	"testing"
)

// TestLineTableMatchesMap drives LineTable and a built-in map with the same
// random put/get/del/clear stream and requires identical contents and
// lengths throughout. Keys mix line addresses, small integers and keys that
// differ only in their top bits — which the multiplicative hash folds into
// a handful of home slots, so probe chains run long and deletions shift
// them — and the stream grows the table from its zero value.
func TestLineTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := func() uint64 {
			switch rng.Intn(3) {
			case 0:
				return uint64(rng.Intn(4096)) * 128
			case 1:
				return uint64(rng.Intn(64))
			default:
				return uint64(rng.Intn(64)) << 58
			}
		}
		var lt LineTable[int64]
		ref := map[uint64]int64{}
		for step := 0; step < 40000; step++ {
			k := key()
			switch r := rng.Intn(100); {
			case r < 50:
				v := rng.Int63()
				lt.Put(k, v)
				ref[k] = v
			case r < 80:
				_, want := ref[k]
				if got := lt.Del(k); got != want {
					t.Fatalf("seed %d step %d: Del(%#x) = %v, want %v", seed, step, k, got, want)
				}
				delete(ref, k)
			case r < 99:
				got, ok := lt.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("seed %d step %d: Get(%#x) = (%d, %v), want (%d, %v)", seed, step, k, got, ok, want, wok)
				}
			default:
				if rng.Intn(20) == 0 {
					lt.Clear()
					clear(ref)
				}
			}
			if lt.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, lt.Len(), len(ref))
			}
			if step%1000 == 0 {
				for k, want := range ref {
					if got, ok := lt.Get(k); !ok || got != want {
						t.Fatalf("seed %d step %d: Get(%#x) = (%d, %v), want (%d, true)", seed, step, k, got, ok, want)
					}
				}
			}
		}
	}

	// Probe chains that wrap past the end of the array: a 16-slot table
	// (held below its growth point) over keys whose home slots are the last
	// two and the first two, so deletions shift entries across the wrap.
	var small LineTable[int64]
	small.init(8)
	var pool []uint64
	want := map[uint32]int{15: 4, 14: 3, 0: 3, 1: 2}
	for k := uint64(1); len(pool) < 12; k++ {
		if h := small.slot(k); want[h] > 0 {
			want[h]--
			pool = append(pool, k)
		}
	}
	rng := rand.New(rand.NewSource(7))
	ref := map[uint64]int64{}
	for step := 0; step < 20000; step++ {
		k := pool[rng.Intn(len(pool))]
		if _, ok := ref[k]; rng.Intn(2) == 0 && (ok || len(ref) < 7) {
			small.Put(k, int64(step))
			ref[k] = int64(step)
		} else {
			small.Del(k)
			delete(ref, k)
		}
		for _, k := range pool {
			got, ok := small.Get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("wrap step %d: Get(%#x) = (%d, %v), want (%d, %v)", step, k, got, ok, want, wok)
			}
		}
	}
	if len(small.keys) != 16 {
		t.Fatalf("wrap stream grew the table to %d slots; it must stay at 16", len(small.keys))
	}

	// A table that has held n keys refills to n after Clear without
	// allocating.
	var lt LineTable[int32]
	fill := func() {
		for i := 0; i < 3000; i++ {
			lt.Put(uint64(i)<<7, int32(i))
		}
		for i := 0; i < 3000; i += 3 {
			lt.Del(uint64(i) << 7)
		}
		lt.Clear()
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("refilling a cleared table allocated %.1f times per run, want 0", n)
	}
}

// TestMissQueuePopBounded runs a long interleaved push/pop stream with a
// physical queue far deeper than the modeled capacity (entries stay queued
// until a fixed maturity, as the engine's slack horizon holds them) and
// checks FIFO order, that the backing array stays within a constant factor
// of the deepest queue, and that steady state allocates nothing.
func TestMissQueuePopBounded(t *testing.T) {
	const horizon = 200
	q := NewMissQueue(8)
	q.SetInjectionModel(2, 1)
	var pushed, popped uint64
	maxDepth := 0
	now := int64(0)
	run := func(cycles int) {
		for end := now + int64(cycles); now < end; now++ {
			q.SetClock(now, 0)
			for k := 0; k < 2 && !q.Full(); k++ {
				q.Push(MissRequest{LineAddr: pushed, Cycle: now})
				pushed++
			}
			for {
				r, ok := q.Peek()
				if !ok || r.Cycle+horizon > now {
					break
				}
				r, _ = q.Pop()
				if r.LineAddr != popped {
					t.Fatalf("cycle %d: popped %d, want %d", now, r.LineAddr, popped)
				}
				popped++
			}
			if d := q.Len(); d > maxDepth {
				maxDepth = d
			}
		}
	}
	run(5000)
	if n := testing.AllocsPerRun(10, func() { run(1000) }); n != 0 {
		t.Errorf("steady-state push/pop allocated %.1f times per 1000 cycles, want 0", n)
	}
	if popped < 10000 {
		t.Fatalf("only %d entries popped: the stream did not reach steady state", popped)
	}
	if c := cap(q.queue); c > 4*maxDepth+8 {
		t.Errorf("backing array capacity %d for a queue at most %d deep", c, maxDepth)
	}
}
