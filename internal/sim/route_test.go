package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snake/internal/workloads"
)

// TestRoutePlanReplaysSerialArrivalOrder is the property test behind the
// route phase: for randomized due-sets — non-decreasing arrival stamps with
// ties, random partition targets — planRoute must (a) present each ring's
// due view in global arrival order restricted to that partition, and (b)
// the partitions' responses must pop off the heap identically whether they
// are pushed in partition-major order (what the partition ticks do) or in
// global arrival order (what a per-request walk would do). (b) is the whole
// determinism argument: the heap's pop sequence depends only on the
// (readyAt, seq) key set, and seq is the global arrival rank stamped at
// injection.
func TestRoutePlanReplaysSerialArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	for trial := 0; trial < 50; trial++ {
		e := newEngine(k, Options{Config: testCfg()})
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

		// (a) each due view is the global arrival order restricted to its
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

		// (b) heap replay: tick the partitions, each pushing its responses
		// as it computes them (partition-major), then push the same set
		// again in global arrival order. The pop sequences must match
		// element for element.
		var partOrder, arrivalOrder respHeap
		for _, p := range e.parts {
			if p.dueN > 0 {
				p.tickSpan(start, end, &partOrder)
			}
		}
		if len(partOrder) != due {
			t.Fatalf("trial %d: partitions pushed %d responses, want %d", trial, len(partOrder), due)
		}
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
