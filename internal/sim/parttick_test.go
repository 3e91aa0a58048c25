package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snake/internal/workloads"
)

// TestPartitionTickReplaysSerialArrivalOrder is the property test behind
// the partitions' own ingress rings: for randomized pushes — non-decreasing
// arrival stamps with ties, random partition targets — ticking the epoch
// [start, end] must (a) pop from each ring exactly the entries stamped at or
// before end, leaving the rest in push order with reqsLen equal to the
// rings' total, and (b) the partitions' responses must pop off the heap
// identically whether they are pushed in partition-major order (what the
// partition ticks do) or in global arrival order (what a per-request walk
// would do). (b) is the whole determinism argument: the heap's pop sequence
// depends only on the (readyAt, seq) key set, and seq is the global arrival
// rank stamped at injection.
func TestPartitionTickReplaysSerialArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	for trial := 0; trial < 50; trial++ {
		e := freshEngine(k, Options{Config: testCfg()})
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
		var clk phaseClock
		e.tickWave(start, end, &clk)
		if e.slackErr != nil {
			t.Fatalf("trial %d: %v", trial, e.slackErr)
		}
		if len(e.resps) != due {
			t.Fatalf("trial %d: partitions pushed %d responses, want %d", trial, len(e.resps), due)
		}

		// (a) each ring keeps exactly its entries stamped after end, in push
		// order: push order is arrival order (stamps are non-decreasing), so
		// filtering the log by partition gives the expected sequence.
		if want := n - due; e.reqsLen != want {
			t.Fatalf("trial %d: reqsLen %d after the tick, want %d", trial, e.reqsLen, want)
		}
		left := 0
		for pi, p := range e.parts {
			var want, got []pushed
			for _, q := range all {
				if q.part == pi && q.cycle > end {
					want = append(want, q)
				}
			}
			left += p.reqs.Len()
			for p.reqs.Len() > 0 {
				at := p.reqs.NextCycle()
				r, _ := p.reqs.PopDue(at)
				got = append(got, pushed{seq: r.seq, part: e.partOf(r.lineAddr), cycle: at})
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: partition %d ring holds %v, want the entries after end %v", trial, pi, got, want)
			}
		}
		if left != n-due {
			t.Fatalf("trial %d: rings hold %d entries, reqsLen %d", trial, left, e.reqsLen)
		}

		// (b) heap replay: the ticks pushed each response as they computed
		// it (partition-major); push the same set again in global arrival
		// order. The pop sequences must match element for element.
		partOrder := e.resps
		var arrivalOrder respHeap
		byArrival := append([]resp(nil), partOrder...)
		sort.Slice(byArrival, func(i, j int) bool { return byArrival[i].seq < byArrival[j].seq })
		for _, r := range byArrival {
			arrivalOrder.push(r)
		}
		for i := 0; len(partOrder) > 0; i++ {
			a, b := partOrder.pop(), arrivalOrder.pop()
			if a != b {
				t.Fatalf("trial %d: pop %d diverges: partition-major %+v, arrival-order %+v", trial, i, a, b)
			}
		}
		if len(arrivalOrder) != 0 {
			t.Fatalf("trial %d: heaps drained unevenly", trial)
		}
	}
}
