package sim

import (
	"testing"
	"testing/quick"

	"snake/internal/config"
)

func TestRespHeapOrdering(t *testing.T) {
	f := func(times []int64) bool {
		var h respHeap
		for _, c := range times {
			h.push(resp{readyAt: c % 10000})
		}
		last := int64(-1 << 62)
		for h.Len() > 0 {
			r := h.pop()
			if r.readyAt < last {
				return false
			}
			last = r.readyAt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMemPartitionMergesInflight(t *testing.T) {
	m := newMemPartition(0, config.Scaled(2, 8), nil)
	r1 := m.access(0x1000, 100)
	r2 := m.access(0x1000, 101) // same line while in flight: merged
	if r2 != r1 {
		t.Errorf("merged access ready at %d, want %d", r2, r1)
	}
	// After the fill completes, the line hits in L2.
	m.completeFill(0x1000, r1)
	r3 := m.access(0x1000, r1+10)
	if r3-(r1+10) >= r1-100 {
		t.Errorf("L2 hit latency %d not faster than the DRAM fetch %d", r3-(r1+10), r1-100)
	}
}

func TestMemPartitionCompleteFillIdempotent(t *testing.T) {
	m := newMemPartition(0, config.Scaled(2, 8), nil)
	ready := m.access(0x2000, 100)
	m.completeFill(0x2000, ready)
	m.completeFill(0x2000, ready+1) // second call is a no-op
	if reads := m.ms.DRAMReads; reads != 1 {
		t.Errorf("dram reads = %d, want 1", reads)
	}
}

func TestPartOfSpreadsStridedStreams(t *testing.T) {
	e := &engine{cfg: config.Scaled(4, 64)}
	e.parts = make([]*memPartition, e.cfg.L2Partitions)
	counts := make([]int, e.cfg.L2Partitions)
	// A 512-byte-strided stream (LIB's pattern) must not camp on one or two
	// partitions.
	for i := 0; i < 1024; i++ {
		counts[e.partOf(uint64(i)*512)]++
	}
	used := 0
	for _, c := range counts {
		if c > 0 {
			used++
		}
	}
	if used < e.cfg.L2Partitions/2 {
		t.Errorf("strided stream used only %d/%d partitions: %v", used, e.cfg.L2Partitions, counts)
	}
}

func TestPartOfKeepsRowsTogether(t *testing.T) {
	e := &engine{cfg: config.Scaled(4, 64)}
	e.parts = make([]*memPartition, e.cfg.L2Partitions)
	// All lines of one DRAM row must map to the same partition so row
	// locality survives partition interleaving.
	row := uint64(12345) * uint64(e.cfg.DRAMRowBytes)
	want := e.partOf(row)
	for off := 0; off < e.cfg.DRAMRowBytes; off += e.cfg.Unified.LineSize {
		if got := e.partOf(row + uint64(off)); got != want {
			t.Fatalf("row split across partitions at offset %d", off)
		}
	}
}
