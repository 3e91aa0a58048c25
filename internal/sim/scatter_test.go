package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/workloads"
)

// TestRoutePlanReplaysSerialArrivalOrder is the property test behind the
// parallel route phase: for randomized due-sets — non-decreasing arrival
// stamps with ties, random partition targets — the prefix-sum slot assignment
// must (a) hand each partition a contiguous, disjoint slot range, (b) present
// each ring's due view in global arrival order restricted to that partition,
// and (c) produce a routed slab whose heap replay is identical whether the
// responses are pushed in partition-major slot order (what mergeEpoch does)
// or in global arrival order (what the serial engine did). (c) is the whole
// determinism argument: the heap's pop sequence depends only on the
// (readyAt, seq) key set, and seq is the global arrival rank stamped at
// injection.
func TestRoutePlanReplaysSerialArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	for trial := 0; trial < 50; trial++ {
		e := newEngine(k, Options{Config: parCfg()}.withDefaults())
		n := 1 + rng.Intn(200)
		start := int64(100)
		end := start + int64(rng.Intn(32))
		type pushed struct {
			seq   int64
			part  int
			cycle int64
		}
		all := make([]pushed, 0, n)
		c := start
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				// Advance the arrival clock sometimes; the rest tie on it,
				// like several network sends landing in one cycle.
				c += int64(rng.Intn(4))
			}
			line := uint64(rng.Intn(1<<20)) << 7
			e.pushReq(c, reqMsg{sm: rng.Intn(4), lineAddr: line})
			all = append(all, pushed{seq: e.respSeq, part: e.partOf(line), cycle: c})
		}
		due := 0
		for _, p := range all {
			if p.cycle <= end {
				due++
			}
		}
		if got := e.planRoute(end); got != due {
			t.Fatalf("trial %d: planRoute found %d due, want %d", trial, got, due)
		}

		// (a) slot ranges: contiguous in partition order, sized to the ring's
		// due prefix, covering [0, due) exactly.
		base := 0
		for pi, p := range e.parts {
			if p.slotBase != base {
				t.Fatalf("trial %d: partition %d slotBase=%d, want %d (prefix-sum must be contiguous)",
					trial, pi, p.slotBase, base)
			}
			if got := len(p.dueA) + len(p.dueB); got != p.dueN {
				t.Fatalf("trial %d: partition %d view holds %d, dueN=%d", trial, pi, got, p.dueN)
			}
			base += p.dueN
		}
		if base != due {
			t.Fatalf("trial %d: slot ranges cover %d, want %d", trial, base, due)
		}

		// (b) each due view is the global arrival order restricted to its
		// partition: push order is arrival order (stamps are non-decreasing),
		// so filtering the log by partition gives the expected seq sequence.
		for pi, p := range e.parts {
			var want []int64
			for _, q := range all {
				if q.part == pi && q.cycle <= end {
					want = append(want, q.seq)
				}
			}
			got := make([]int64, 0, p.dueN)
			for i := range p.dueA {
				got = append(got, p.dueA[i].Msg.seq)
			}
			for i := range p.dueB {
				got = append(got, p.dueB[i].Msg.seq)
			}
			if !reflect.DeepEqual(got, append([]int64{}, want...)) && len(want)+len(got) > 0 {
				t.Fatalf("trial %d: partition %d due seqs %v, want arrival-restriction %v", trial, pi, got, want)
			}
		}

		// (c) heap replay: tick the partitions to fill the slots, then push
		// once in partition-major slot order and once in global arrival
		// order. The pop sequences must match element for element.
		for _, p := range e.parts {
			if p.dueN > 0 {
				p.tickSpan(start, end)
			}
		}
		var slotOrder, arrivalOrder respHeap
		for _, r := range e.routed {
			slotOrder.push(r)
		}
		byArrival := append([]resp(nil), e.routed...)
		sort.Slice(byArrival, func(i, j int) bool { return byArrival[i].seq < byArrival[j].seq })
		for _, r := range byArrival {
			arrivalOrder.push(r)
		}
		for i := 0; len(slotOrder) > 0; i++ {
			a, b := slotOrder.pop(), arrivalOrder.pop()
			if a != b {
				t.Fatalf("trial %d: pop %d diverges: slot-order %+v, arrival-order %+v", trial, i, a, b)
			}
		}
		if len(arrivalOrder) != 0 {
			t.Fatalf("trial %d: heaps drained unevenly", trial)
		}
	}
}

// TestStoreScatterMatchesSerialOracle is the property test for the epoch
// store merge: randomized per-shard store streams (cycle-sorted, as tickSpan
// stages them, with heavy same-cycle ties across shards) must come out of the
// counting scatter in exactly (cycle, smID, seq) order — the order the
// per-cycle serial engine appended. Pass 1 runs through the real shard
// tickSpan.
func TestStoreScatterMatchesSerialOracle(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		e := newEngine(k, Options{Config: parCfg()}.withDefaults())
		// Stores must mature strictly past the epoch end (mergeStores
		// asserts it); the white-box streams below are staged inside the
		// epoch, so widen the horizon instead of modeling maturation.
		e.horizon = 1 << 20
		start := int64(1000)
		end := start + int64(rng.Intn(60))
		var want []storeMsg
		for si, sh := range e.shards {
			n := rng.Intn(40)
			if si == 0 {
				n = 0 // store-free shards must be skipped by the active scan
			}
			c := start
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					c += int64(rng.Intn(3))
					if c > end {
						c = end
					}
				}
				sh.out.addStore(uint64(rng.Intn(1<<20))<<7, c)
			}
			want = append(want, sh.out.stores...)
			sh.tickSpan(start, end) // pass 1: per-sub-cycle counts
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := &want[i], &want[j]
			if a.cycle != b.cycle {
				return a.cycle < b.cycle
			}
			if a.sm != b.sm {
				return a.sm < b.sm
			}
			return a.seq < b.seq
		})
		e.mergeStores(start, end)
		if !reflect.DeepEqual(e.stores, want) && len(e.stores)+len(want) > 0 {
			t.Fatalf("trial %d: scatter produced %d stores diverging from the (cycle, smID, seq) oracle (%d)",
				trial, len(e.stores), len(want))
		}
		for si, sh := range e.shards {
			if len(sh.out.stores) != 0 {
				t.Fatalf("trial %d: shard %d egress not cleared", trial, si)
			}
		}
	}
}

// TestScatterHighParallelismEquivalence is the end-to-end race target for the
// parallel route and the per-shard store counts the merge scatters by: twelve
// workers, both extreme slack windows, two store-heavy Table 2 benchmarks,
// bit-identical to serial. The CI -race leg runs this (with the white-box
// scatter/route tests).
func TestScatterHighParallelismEquivalence(t *testing.T) {
	pf := func(int) prefetch.Prefetcher { return core.NewSnake() }
	for _, name := range []string{"lps", "mum"} {
		k, err := workloads.Build(name, workloads.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(k, Options{Config: parCfg(), NewPrefetcher: pf})
		if err != nil {
			t.Fatal(err)
		}
		for _, slack := range []int{1, 0} { // per-cycle barriers and the full audit bound
			got, err := Run(k, Options{
				Config: parCfg(), NewPrefetcher: pf,
				Parallelism: 12, SlackWindow: slack,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Result.Slack echoes the requested window; the oracle is the
			// simulation output.
			got.Slack = want.Slack
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s P=12 slack=%d diverges from serial\n got:  %+v\n want: %+v",
					name, slack, got.Stats, want.Stats)
			}
		}
	}
}
