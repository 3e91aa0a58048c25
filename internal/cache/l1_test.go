package cache

import (
	"testing"

	"snake/internal/config"
	"snake/internal/stats"
)

func newTestL1(decoupled, isolated bool) (*L1, *stats.Sim) {
	st := &stats.Sim{}
	l := NewL1(geom(8, 4, 128), L1Options{
		Decoupled:     decoupled,
		Isolated:      isolated,
		MSHREntries:   16,
		MergeCap:      4,
		MissQueueSize: 4,
	}, st)
	return l, st
}

// completeFill pops all outstanding requests and fills them.
func completeFill(l *L1, cycle int64) (filled int) {
	l.DrainPrefetch(cycle)
	for {
		r, ok := l.PopMiss()
		if !ok {
			return
		}
		l.Fill(r.LineAddr, cycle)
		filled++
		l.DrainPrefetch(cycle)
	}
}

func TestL1MissThenHit(t *testing.T) {
	l, st := newTestL1(false, false)
	if out := l.Access(0, 0x1000, 1); out != stats.L1Miss {
		t.Fatalf("first access = %v, want miss", out)
	}
	if out := l.Access(1, 0x1000, 2); out != stats.L1Reserved {
		t.Fatalf("second access = %v, want reserved (merged)", out)
	}
	completeFill(l, 10)
	if out := l.Access(2, 0x1040, 11); out != stats.L1Hit {
		t.Fatalf("post-fill access = %v, want hit", out)
	}
	if st.L1[stats.L1Miss] != 1 || st.L1[stats.L1Reserved] != 1 || st.L1[stats.L1Hit] != 1 {
		t.Errorf("stat counts: %v", st.L1)
	}
}

func TestL1MissQueueReservationFail(t *testing.T) {
	l, st := newTestL1(false, false)
	// 4 distinct misses fill the queue (no draining).
	for i := 0; i < 4; i++ {
		if out := l.Access(i, uint64(0x1000+i*0x100), 1); out != stats.L1Miss {
			t.Fatalf("miss %d = %v", i, out)
		}
	}
	if out := l.Access(9, 0x9000, 2); out != stats.L1ReservationFail {
		t.Fatalf("access with full miss queue = %v, want reservation fail", out)
	}
	if st.ResFailMissQueue != 1 {
		t.Errorf("ResFailMissQueue = %d", st.ResFailMissQueue)
	}
}

func TestL1MergeCapReservationFail(t *testing.T) {
	l, st := newTestL1(false, false)
	l.Access(0, 0x1000, 1) // miss
	for w := 1; w <= 3; w++ {
		if out := l.Access(w, 0x1000, 1); out != stats.L1Reserved {
			t.Fatalf("merge %d = %v", w, out)
		}
	}
	// Merge capability (4) exhausted.
	if out := l.Access(4, 0x1000, 1); out != stats.L1ReservationFail {
		t.Fatalf("beyond merge cap = %v, want reservation fail", out)
	}
	if st.ResFailMSHR != 1 {
		t.Errorf("ResFailMSHR = %d", st.ResFailMSHR)
	}
}

func TestPrefetchLifecycleTimely(t *testing.T) {
	l, st := newTestL1(true, false)
	if oc := l.PrefetchLine(0x2000, 1); oc != PrefetchIssued {
		t.Fatalf("PrefetchLine = %v", oc)
	}
	l.Predict(0x2000)
	completeFill(l, 5)
	if l.PendingPrefetches() != 1 {
		t.Fatalf("pending = %d", l.PendingPrefetches())
	}
	out := l.Access(0, 0x2000, 10)
	if out != stats.L1HitPrefetch {
		t.Fatalf("demand on prefetched line = %v", out)
	}
	if st.Pf.UsefulTimely != 1 || st.Pf.Covered != 1 || st.Pf.CoveredTimely != 1 {
		t.Errorf("prefetch stats: %+v", st.Pf)
	}
	if l.PendingPrefetches() != 0 {
		t.Error("pending not consumed")
	}
}

func TestPrefetchLifecycleLate(t *testing.T) {
	l, st := newTestL1(true, false)
	l.PrefetchLine(0x2000, 1)
	l.Predict(0x2000)
	// Demand arrives while the prefetch is still in flight.
	if out := l.Access(0, 0x2000, 2); out != stats.L1Reserved {
		t.Fatalf("demand during in-flight prefetch = %v", out)
	}
	if st.Pf.UsefulLate != 1 {
		t.Errorf("UsefulLate = %d", st.Pf.UsefulLate)
	}
	// Covered but not timely.
	if st.Pf.Covered != 1 || st.Pf.CoveredTimely != 0 {
		t.Errorf("Covered=%d CoveredTimely=%d", st.Pf.Covered, st.Pf.CoveredTimely)
	}
}

func TestPrefetchDuplicateDropped(t *testing.T) {
	l, _ := newTestL1(true, false)
	l.PrefetchLine(0x2000, 1)
	if oc := l.PrefetchLine(0x2000, 2); oc != PrefetchDuplicate {
		t.Errorf("in-flight duplicate = %v", oc)
	}
	completeFill(l, 5)
	if oc := l.PrefetchLine(0x2000, 6); oc != PrefetchDuplicate {
		t.Errorf("resident duplicate = %v", oc)
	}
}

func TestMagicFill(t *testing.T) {
	l, st := newTestL1(true, false)
	if !l.MagicFill(0x3000, 1) {
		t.Fatal("MagicFill failed")
	}
	if l.MagicFill(0x3000, 2) {
		t.Error("duplicate MagicFill must fail")
	}
	if out := l.Access(0, 0x3000, 3); out != stats.L1HitPrefetch {
		t.Errorf("access after MagicFill = %v", out)
	}
	if st.Pf.UsefulTimely != 1 {
		t.Errorf("UsefulTimely = %d", st.Pf.UsefulTimely)
	}
}

func TestUnusedPrefetchAccounting(t *testing.T) {
	l, st := newTestL1(true, false)
	l.PrefetchLine(0x2000, 1)
	completeFill(l, 5)
	l.FinishRun()
	if st.Pf.Unused != 1 {
		t.Errorf("Unused = %d", st.Pf.Unused)
	}
}

func TestIsolatedBufferKeepsUnifiedFree(t *testing.T) {
	l, _ := newTestL1(false, true)
	l.PrefetchLine(0x2000, 1)
	completeFill(l, 5)
	data, pf, res, _ := l.Occupancy()
	if data != 0 || pf != 0 || res != 0 {
		t.Errorf("unified occupancy after isolated prefetch: data=%d pf=%d res=%d", data, pf, res)
	}
	if out := l.Access(0, 0x2000, 10); out != stats.L1HitPrefetch {
		t.Errorf("access = %v, want isolated-buffer hit", out)
	}
}

func TestDecoupledDemandProtectsPendingPrefetches(t *testing.T) {
	st := &stats.Sim{}
	// Tiny cache: 2 sets x 2 ways.
	l := NewL1(config.CacheGeom{SizeBytes: 4 * 128, Ways: 2, LineSize: 128, Latency: 1},
		L1Options{Decoupled: true, MSHREntries: 16, MergeCap: 4, MissQueueSize: 8}, st)
	l.SetTrained(true)
	setSpan := uint64(2 * 128)
	// Fill set 0 with one pending prefetch and one demand line.
	l.PrefetchLine(0x0, 1)
	l.Access(0, setSpan, 2)
	completeFill(l, 5)
	l.Access(0, setSpan, 6) // touch the data line (cycle 6 > prefetch's 5)
	// A new demand miss to set 0 must evict the (LRU) data line, not the
	// untouched prefetched line — even though the prefetch line is older.
	if out := l.Access(1, 2*setSpan, 7); out != stats.L1Miss {
		t.Fatalf("third access = %v", out)
	}
	if st.Pf.EarlyEvicted != 0 {
		t.Errorf("pending prefetch was evicted by demand (EarlyEvicted=%d)", st.Pf.EarlyEvicted)
	}
	// The prefetched line must still be present.
	completeFill(l, 10)
	if out := l.Access(2, 0x0, 11); out != stats.L1HitPrefetch {
		t.Errorf("prefetched line gone: %v", out)
	}
}

func TestFreeQuarterPrefersClassByTransferRatio(t *testing.T) {
	st := &stats.Sim{}
	l := NewL1(config.CacheGeom{SizeBytes: 8 * 128, Ways: 4, LineSize: 128, Latency: 1},
		L1Options{Decoupled: true, MSHREntries: 32, MergeCap: 4, MissQueueSize: 16}, st)
	// Create 4 prefetched lines, never consumed => transfer ratio 0.
	for i := 0; i < 4; i++ {
		l.PrefetchLine(uint64(i)*128, int64(i))
	}
	completeFill(l, 5)
	before := l.PendingPrefetches()
	l.FreeQuarter() // 8/4 = 2 lines, preferred class = prefetch (ratio 0)
	if evicted := before - l.PendingPrefetches(); evicted != 2 {
		t.Errorf("FreeQuarter evicted %d pending prefetches, want 2", evicted)
	}
	if st.Pf.EarlyEvicted != 2 {
		t.Errorf("EarlyEvicted = %d, want 2", st.Pf.EarlyEvicted)
	}
}

// TestFreeQuarterAllocs pins the bulk free of a full Table 1 L1 at zero
// allocations: EvictLRUOfClass's candidate, tree and result buffers are
// scratch reused across calls.
func TestFreeQuarterAllocs(t *testing.T) {
	l := NewL1(table1L1, L1Options{Decoupled: true, MSHREntries: 32, MergeCap: 4, MissQueueSize: 16}, &stats.Sim{})
	var tag uint64
	allocs := testing.AllocsPerRun(20, func() {
		refill(l.cache, &tag)
		l.FreeQuarter()
		if _, _, _, free := l.Occupancy(); free != l.cache.Lines()/4 {
			t.Fatalf("FreeQuarter left %d free lines, want %d", free, l.cache.Lines()/4)
		}
	})
	if allocs != 0 {
		t.Errorf("refill + FreeQuarter allocates %.1f times per run, want 0", allocs)
	}
}

func TestL1Reset(t *testing.T) {
	l, _ := newTestL1(true, false)
	l.Access(0, 0x1000, 1)
	l.PrefetchLine(0x2000, 1)
	l.Reset()
	if l.InFlight() != 0 || l.MissQueueLen() != 0 || l.PendingPrefetches() != 0 {
		t.Error("Reset left residual state")
	}
	if out := l.Access(0, 0x1000, 10); out != stats.L1Miss {
		t.Errorf("access after Reset = %v, want miss", out)
	}
}
