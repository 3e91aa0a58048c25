package sim

import (
	"testing"

	"snake/internal/config"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// TestMemPartitionRowHitFasterThanRowMiss pins the DRAM row-buffer model's
// central contract: with a row already open, a second line from the same row
// costs CAS latency only, strictly less than the activate+CAS of the cold
// miss that opened it — and the controller counts exactly one of each.
func TestMemPartitionRowHitFasterThanRowMiss(t *testing.T) {
	cfg := config.Scaled(2, 8)
	m := newMemPartition(0, cfg, nil)

	cold := m.access(0, 100)
	missLat := cold - 100
	m.completeFill(0, cold)

	// A different line in the same DRAM row, issued long after the bank has
	// gone quiescent so no bank-busy queueing muddies the latency.
	sameRow := uint64(cfg.DRAMRowBytes / 2)
	hit := m.access(sameRow, 10_000)
	hitLat := hit - 10_000
	if hitLat >= missLat {
		t.Errorf("open-row access took %d cycles, not faster than the %d-cycle row miss", hitLat, missLat)
	}
	reads, rowHits, rowMisses := m.ms.DRAMReads, m.ms.DRAMRowHits, m.ms.DRAMRowMisses
	if reads != 2 || rowHits != 1 || rowMisses != 1 {
		t.Errorf("dram counters reads=%d rowHits=%d rowMisses=%d, want 2/1/1", reads, rowHits, rowMisses)
	}
}

// TestMemPartitionPrechargePenalty checks the other side of the open-page
// policy: a row miss on a bank that already holds an open row pays a
// precharge on top of activate+CAS, so some row in a probe sweep must come
// back strictly slower than the cold miss on an empty bank — and every probe
// must be counted as a row miss (rows never falsely hit).
func TestMemPartitionPrechargePenalty(t *testing.T) {
	cfg := config.Scaled(2, 8)
	m := newMemPartition(0, cfg, nil)

	cold := m.access(0, 100)
	coldLat := cold - 100

	// Probe distinct rows with long quiescent gaps. The bank mapping is
	// swizzled, so rather than assuming which row shares row 0's bank, sweep
	// until one demonstrably pays the precharge.
	sawPrecharge := false
	cycle := int64(100_000)
	const probes = 64
	for row := uint64(1); row <= probes; row++ {
		lat := m.access(row*uint64(cfg.DRAMRowBytes), cycle) - cycle
		if lat < coldLat {
			t.Fatalf("row %d: closed-row access took %d cycles, faster than a cold miss (%d)", row, lat, coldLat)
		}
		if lat > coldLat {
			sawPrecharge = true
		}
		cycle += 100_000
	}
	if !sawPrecharge {
		t.Errorf("no probe among %d distinct rows paid a precharge over the cold-miss latency %d", probes, coldLat)
	}
	if rowHits, rowMisses := m.ms.DRAMRowHits, m.ms.DRAMRowMisses; rowHits != 0 || rowMisses != probes+1 {
		t.Errorf("rowHits=%d rowMisses=%d, want 0 and %d: distinct rows must all miss", rowHits, rowMisses, probes+1)
	}
}

// TestMemPartitionMergeWindowCloses complements TestMemPartitionMergesInflight:
// merging applies only while the fetch is strictly in flight. At or after the
// data-ready cycle a same-line access is a fresh request — without a
// completeFill the line is not in L2 either, so DRAM sees a second read.
func TestMemPartitionMergeWindowCloses(t *testing.T) {
	m := newMemPartition(0, config.Scaled(2, 8), nil)
	line := uint64(0x4000)
	r1 := m.access(line, 100)
	r2 := m.access(line, r1) // window closed: ra > cycle no longer holds
	if r2 <= r1 {
		t.Errorf("post-window access ready at %d, not after the first fetch at %d", r2, r1)
	}
	if reads := m.ms.DRAMReads; reads != 2 {
		t.Errorf("dram reads = %d, want 2: the closed merge window must issue a new read", reads)
	}
}

// TestDrainResponsesDeliveryOrdering drives the memory→SM response path
// white-box: responses pushed out of ready order must cross the response
// network in readyAt order, never before their data is ready, and land on
// each destination SM's ingress port in non-decreasing stamp order — the
// FIFO-equals-cycle-order property the epoch loop relies on.
func TestDrainResponsesDeliveryOrdering(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	e := freshEngine(k, Options{Config: tinyCfg()})

	lineSz := uint64(e.cfg.Unified.LineSize)
	push := func(ready int64, sm int, line uint64) {
		e.resps.push(resp{readyAt: ready, sm: sm, lineAddr: line, part: e.partOf(line)})
	}
	// Out-of-order pushes across two SMs; per SM the readyAt values are
	// distinct so the expected per-port sequence is unambiguous.
	push(50, 0, 5*lineSz)
	push(10, 0, 1*lineSz)
	push(30, 1, 3*lineSz)
	push(12, 1, 2*lineSz)
	push(70, 0, 7*lineSz)

	step := func(c int64) {
		e.cycle = c
		e.net.tick(c)
		e.drainResponses(c)
	}
	// Before the earliest readyAt nothing may be sent, no matter how idle the
	// response network is.
	for c := int64(1); c < 10; c++ {
		step(c)
	}
	if len(e.resps) != 5 {
		t.Fatalf("%d responses sent before their data was ready", 5-len(e.resps))
	}
	for c := int64(10); c <= 200 && len(e.resps) > 0; c++ {
		step(c)
	}
	if len(e.resps) != 0 {
		t.Fatalf("%d responses still queued after 200 cycles", len(e.resps))
	}

	want := map[int][]uint64{
		0: {1 * lineSz, 5 * lineSz, 7 * lineSz},
		1: {2 * lineSz, 3 * lineSz},
	}
	for smID, wantLines := range want {
		s := e.sms[smID]
		last := int64(-1)
		for i, wl := range wantLines {
			stamp := s.fills.NextCycle()
			f, ok := s.fills.PopDue(1 << 60)
			if !ok {
				t.Fatalf("sm %d: ingress holds %d fills, want %d", smID, i, len(wantLines))
			}
			if stamp < last {
				t.Errorf("sm %d: delivery stamp went backwards: %d after %d", smID, stamp, last)
			}
			last = stamp
			if f.lineAddr != wl {
				t.Errorf("sm %d: fill %d is line %#x, want %#x (readyAt order)", smID, i, f.lineAddr, wl)
			}
		}
		if _, ok := s.fills.PopDue(1 << 60); ok {
			t.Errorf("sm %d: extra fill beyond the %d expected", smID, len(wantLines))
		}
	}
}

// TestDrainResponsesSerializesBandwidth checks response-network backpressure:
// a burst of same-cycle responses cannot all be delivered at once. The link
// serializes them — delivery stamps must span at least the burst's
// serialization time — and the bounded backlog forces the heap to drain over
// several cycles rather than booking the whole burst in one.
func TestDrainResponsesSerializesBandwidth(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	e := freshEngine(k, Options{Config: tinyCfg()})

	lineSz := e.cfg.Unified.LineSize
	const burst = 40
	for i := 0; i < burst; i++ {
		line := uint64(i) * uint64(lineSz)
		e.resps.push(resp{readyAt: 1, sm: 0, lineAddr: line, part: e.partOf(line)})
	}
	e.cycle = 1
	e.net.tick(1)
	e.drainResponses(1)
	if len(e.resps) == 0 {
		t.Fatal("entire burst booked in one cycle; the backlog bound never engaged")
	}
	for c := int64(2); c <= 500 && len(e.resps) > 0; c++ {
		e.cycle = c
		e.net.tick(c)
		e.drainResponses(c)
	}
	if len(e.resps) != 0 {
		t.Fatalf("%d responses still queued after 500 cycles", len(e.resps))
	}

	s := e.sms[0]
	if got := s.fills.Len(); got != burst {
		t.Fatalf("ingress holds %d fills, want %d", got, burst)
	}
	first := s.fills.NextCycle()
	last := first
	for {
		stamp := s.fills.NextCycle()
		if _, ok := s.fills.PopDue(1 << 60); !ok {
			break
		}
		if stamp < last {
			t.Fatalf("delivery stamp went backwards: %d after %d", stamp, last)
		}
		last = stamp
	}
	// burst × lineSz bytes over a bpc-bytes/cycle link cannot be delivered in
	// fewer cycles than its serialization time.
	bpc := e.cfg.IcntBytesPerCycle * e.cfg.NumSM
	if minSpread := int64(burst*lineSz/bpc - 1); last-first < minSpread {
		t.Errorf("burst delivered within %d cycles; serialization needs at least %d", last-first, minSpread)
	}
}

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

// TestPartitionTickMergesAcrossSMs drives the request path white-box: two
// SMs requesting the same line in the same cycle are binned onto one
// partition's ingress ring at injection (pushReq, consecutive global arrival
// seqs), and the partition's tick pops both, computes one miss plus one
// merge (both responses ready at the same data cycle), pushes both onto the
// response heap, and leaves the ring and reqsLen empty.
func TestPartitionTickMergesAcrossSMs(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	e := freshEngine(k, Options{Config: testCfg()})

	line := uint64(0x10000)
	e.pushReq(10, reqMsg{sm: 0, lineAddr: line})
	e.pushReq(10, reqMsg{sm: 1, lineAddr: line})
	e.cycle = 10
	p := e.parts[e.partOf(line)]
	if p.reqs.Len() != 2 || e.reqsLen != 2 {
		t.Fatalf("ring holds %d requests, reqsLen=%d, want 2/2", p.reqs.Len(), e.reqsLen)
	}

	var clk phaseClock
	e.tickWave(10, 10, &clk)
	if e.slackErr != nil {
		t.Fatalf("response ready inside the one-cycle span: %v", e.slackErr)
	}
	if e.reqsLen != 0 || p.reqs.Len() != 0 {
		t.Errorf("after the tick: reqsLen=%d ringLen=%d, want 0/0: the tick must consume both requests", e.reqsLen, p.reqs.Len())
	}
	if len(p.completes) > 0 {
		t.Error("partition still busy after tick: bins must drain every cycle")
	}
	if p.ms.L2Misses != 1 || p.ms.L2Merges != 1 {
		t.Errorf("misses=%d merges=%d, want 1 miss and 1 merge", p.ms.L2Misses, p.ms.L2Merges)
	}
	if len(e.resps) != 2 {
		t.Fatalf("%d responses on the heap after the tick, want 2", len(e.resps))
	}
	r0, r1 := e.resps.pop(), e.resps.pop()
	if r0.sm != 0 || r1.sm != 1 {
		t.Errorf("response SMs = %d,%d, want 0,1", r0.sm, r1.sm)
	}
	if r0.seq >= r1.seq {
		t.Errorf("response seqs = %d,%d: responses must inherit increasing arrival seqs", r0.seq, r1.seq)
	}
	if r0.readyAt != r1.readyAt {
		t.Errorf("merged request ready at %d, fetch at %d: must share the in-flight data cycle", r1.readyAt, r0.readyAt)
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
	en := NewEngine()
	res, err := en.Run(sharedLineKernel(), Options{Config: config.Scaled(2, 1)})
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
	for i, per := range en.PerSM() {
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
				for _, in := range w.Insts() {
					if !in.IsMem() {
						continue
					}
					lines = coalesce(lines[:0], in.Addr, int32(in.Stride), cfg.WarpSize, cfg.Unified.LineSize)
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
