package sim

import (
	"testing"

	"snake/internal/config"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// TestMemPartitionCountsL2Outcomes pins the partition's outcome counters at
// the unit level: a cold access is a miss, a same-line access inside the
// in-flight window is a merge, and a post-fill access is a hit — each
// counted exactly once, with DRAM seeing only the miss.
func TestMemPartitionCountsL2Outcomes(t *testing.T) {
	m := newMemPartition(0, config.Scaled(2, 8), nil)
	line := uint64(0x8000)
	r1 := m.access(line, 100) // cold: miss
	m.access(line, 101)       // in flight: merge
	m.completeFill(line, r1)
	m.access(line, r1+10) // resident: hit
	if m.ms.L2Misses != 1 || m.ms.L2Merges != 1 || m.ms.L2Hits != 1 {
		t.Errorf("counters misses=%d merges=%d hits=%d, want 1/1/1",
			m.ms.L2Misses, m.ms.L2Merges, m.ms.L2Hits)
	}
	if m.ms.DRAMReads != 1 {
		t.Errorf("DRAM reads = %d, want 1: the merge and the hit must not reach DRAM", m.ms.DRAMReads)
	}
}

// TestRouteAndTickMergesAcrossSMs drives the routed path white-box: two SMs
// requesting the same line in the same cycle are binned onto one partition's
// ingress ring at injection (pushReq, consecutive global arrival seqs),
// planRoute hands the partition a due view with consecutive slots, the
// partition's tick computes one miss plus one merge (both responses ready at
// the same data cycle), and mergeEpoch publishes the slots onto the response
// heap and drops the consumed ring prefix.
func TestRouteAndTickMergesAcrossSMs(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	e := newEngine(k, Options{Config: parCfg()}.withDefaults())

	line := uint64(0x10000)
	e.pushReq(10, reqMsg{sm: 0, lineAddr: line})
	e.pushReq(10, reqMsg{sm: 1, lineAddr: line})
	e.cycle = 10
	if n := e.planRoute(10); n != 2 {
		t.Fatalf("planRoute found %d due requests, want 2", n)
	}

	p := e.parts[e.partOf(line)]
	if len(e.routed) != 2 || p.dueN != 2 {
		t.Fatalf("routed %d slots, partition due %d, want 2/2", len(e.routed), p.dueN)
	}
	if p.slotBase != 0 {
		t.Fatalf("slotBase = %d, want 0: the only active partition owns the whole range", p.slotBase)
	}
	if got := len(p.dueA) + len(p.dueB); got != 2 {
		t.Fatalf("due view holds %d entries, want 2", got)
	}
	if p.dueA[0].Msg.seq >= p.dueA[1].Msg.seq {
		t.Fatalf("arrival seqs %d,%d not increasing in injection order", p.dueA[0].Msg.seq, p.dueA[1].Msg.seq)
	}
	p.tick(10)
	if p.ms.L2Misses != 1 || p.ms.L2Merges != 1 {
		t.Errorf("misses=%d merges=%d, want 1 miss and 1 merge", p.ms.L2Misses, p.ms.L2Merges)
	}
	r0, r1 := e.routed[0], e.routed[1]
	if r0.sm != 0 || r1.sm != 1 {
		t.Errorf("slot SMs = %d,%d, want 0,1", r0.sm, r1.sm)
	}
	if r0.seq >= r1.seq {
		t.Errorf("slot seqs = %d,%d: responses must inherit increasing arrival seqs", r0.seq, r1.seq)
	}
	if r0.readyAt != r1.readyAt {
		t.Errorf("merged request ready at %d, fetch at %d: must share the in-flight data cycle", r1.readyAt, r0.readyAt)
	}
	e.mergeEpoch(10, 10)
	if len(e.resps) != 2 || len(e.routed) != 0 {
		t.Errorf("after merge: %d heap entries, %d routed slots, want 2 and 0", len(e.resps), len(e.routed))
	}
	if e.reqsLen != 0 || e.partReqs[p.id].Len() != 0 {
		t.Errorf("after merge: reqsLen=%d ringLen=%d, want 0/0: the due prefix must be dropped", e.reqsLen, e.partReqs[p.id].Len())
	}
	if p.dueN > 0 || len(p.completes) > 0 {
		t.Error("partition still busy after tick: bins must drain every cycle")
	}
}

// sharedLineKernel builds a four-CTA kernel for a two-SM machine with one
// warp slot per SM, so CTAs 0/1 run concurrently and CTAs 2/3 follow.
// Region S is broadcast-loaded by both early CTAs — overlapping in-flight
// windows at the L2, so the fetches merge. Each early CTA then loads a
// private region (A on one SM, B on the other); the late CTAs load A and B
// both, and whichever SM a late CTA lands on, one of the two regions is
// absent from that SM's L1 but resident in the L2 — an L2 hit.
func sharedLineKernel() *trace.Kernel {
	const pc = uint64(0x100)
	line := func(region, i int) uint64 { return 0xA000_0000 + uint64(region)<<20 + uint64(i)*128 }
	regionPlan := [][]int{{0, 1}, {0, 2}, {1, 2}, {1, 2}} // 0 = S shared, 1 = A, 2 = B
	k := &trace.Kernel{Name: "shared-line"}
	for c, regions := range regionPlan {
		b := trace.NewBuilder()
		for _, r := range regions {
			for i := 0; i < 8; i++ {
				b.Load(pc+uint64(r)*8, line(r, i), 0) // broadcast: one line per load
				b.Compute(pc+0x80, 2)
			}
		}
		k.CTAs = append(k.CTAs, trace.CTA{ID: c, BaseAddr: line(0, 0), Warps: []trace.WarpProgram{b.Exit(pc + 0x88)}})
	}
	return k
}

// TestL2StatsWiredThrough runs the shared-line kernel end to end on two SMs
// and checks the partition counters reach Result.Stats: concurrent same-line
// fetches from different SMs produce L2 merges, the second CTA wave produces
// L2 hits, every miss is exactly one DRAM read, and the per-SM blocks stay
// zero for these memory-side fields.
func TestL2StatsWiredThrough(t *testing.T) {
	res, err := Run(sharedLineKernel(), Options{Config: config.Scaled(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.L2Misses == 0 || s.L2Merges == 0 || s.L2Hits == 0 {
		t.Errorf("L2 outcomes misses=%d merges=%d hits=%d: all three paths must fire", s.L2Misses, s.L2Merges, s.L2Hits)
	}
	if s.DRAMReads != s.L2Misses {
		t.Errorf("DRAMReads=%d, L2Misses=%d: exactly the misses reach DRAM", s.DRAMReads, s.L2Misses)
	}
	for i, per := range res.PerSM {
		if per.L2Hits != 0 || per.L2Misses != 0 || per.L2Merges != 0 {
			t.Errorf("SM %d carries L2 partition counters (%d/%d/%d); memory-side stats are not per-SM",
				i, per.L2Hits, per.L2Misses, per.L2Merges)
		}
	}
}

// TestPartitionHashCoversAllPartitions is the routing property test: under
// DefaultScale traffic, every Table 2 benchmark's coalesced line-address
// stream must reach every L2 partition — a hash that left partitions cold
// would serialize the memory side's parallelism and misrepresent bandwidth.
func TestPartitionHashCoversAllPartitions(t *testing.T) {
	cfg := config.Scaled(4, 64)
	e := &engine{cfg: cfg}
	e.parts = make([]*memPartition, cfg.L2Partitions)
	sc := workloads.DefaultScale()
	var lines []uint64
	for _, name := range workloads.Names() {
		k, err := workloads.Build(name, sc)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, cfg.L2Partitions)
		remaining := cfg.L2Partitions
	walk:
		for _, cta := range k.CTAs {
			for _, w := range cta.Warps {
				for _, in := range w.Insts {
					if !in.IsMem() {
						continue
					}
					lines = coalesce(lines[:0], in.Addr, in.Stride, cfg.WarpSize, cfg.Unified.LineSize)
					for _, l := range lines {
						if p := e.partOf(l); !seen[p] {
							seen[p] = true
							if remaining--; remaining == 0 {
								break walk
							}
						}
					}
				}
			}
		}
		if remaining != 0 {
			t.Errorf("%s: DefaultScale traffic reached only %d/%d partitions",
				name, cfg.L2Partitions-remaining, cfg.L2Partitions)
		}
	}
}
