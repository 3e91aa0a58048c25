package sim

// resp is a memory response waiting for response-network bandwidth.
//
// Responses are the one in-flight message class that still needs a heap:
// DRAM row timing makes readyAt non-monotone in service order, so a FIFO
// ring (icnt.Ingress) would mis-order them. Requests and fills ride
// Ingress queues instead — the interconnect's serialized bandwidth stamps
// them with non-decreasing delivery cycles, so send order is delivery order.
//
// The heap is hand-rolled rather than a container/heap adapter: heap.Push/
// heap.Pop box every element into an interface{}, which made each in-flight
// response allocate on the hot path.
//
// Ordering is the total order (readyAt, seq): seq is the global arrival rank
// the engine stamps on each request at injection (deterministic smID-order
// pull) and the response inherits, so the pop sequence — ties included — is
// a pure function of the response set, independent of how heap pushes
// interleave with pops. That independence is what lets the partitions of a
// bounded-slack epoch push their responses as they tick, partition after
// partition rather than in global arrival order, without perturbing any
// downstream statistic (see DESIGN.md "Bounded-slack ticking" and "Epoch
// loop"). Responses pushed with seq 0 (white-box
// tests) tie-break exactly like the strict-less heap the seed engine used.
type resp struct {
	readyAt  int64
	seq      int64
	sm       int
	lineAddr uint64
	part     int
	prefetch bool
}

// respLess is the heap's strict total order.
func respLess(a, b *resp) bool {
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	return a.seq < b.seq
}

// respHeap is a min-heap of responses ordered by (data-ready cycle, seq).
type respHeap []resp

func (h respHeap) Len() int { return len(h) }

func (h *respHeap) push(r resp) {
	s := append(*h, r)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !respLess(&s[j], &s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func (h *respHeap) peek() (resp, bool) {
	if len(*h) == 0 {
		return resp{}, false
	}
	return (*h)[0], true
}

func (h *respHeap) pop() resp {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift the new root down within s[:n].
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && respLess(&s[r], &s[j]) {
			j = r
		}
		if !respLess(&s[j], &s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	r := s[n]
	*h = s[:n]
	return r
}
