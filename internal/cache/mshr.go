package cache

// Special warp IDs for MSHR allocation.
const (
	// PrefetchWarp marks an allocation made by the prefetcher: no waiter,
	// and the fill is tracked as a prefetch.
	PrefetchWarp = -1
	// NoWaiterWarp marks a demand allocation with no warp to wake — the
	// secondary transactions of a divergent (uncoalesced) warp access.
	NoWaiterWarp = -2
)

// MSHR is a miss status holding register file. Each in-flight line address
// owns one entry; subsequent misses to the same line merge into that entry up
// to the merge capability. When the file or an entry's merge slots are
// exhausted, the access suffers a reservation fail.
type MSHR struct {
	entries  int
	mergeCap int
	// inflight maps each in-flight line to its entry's index in slots.
	inflight LineTable[int32]
	// slots holds every entry ever used, grown on demand up to the entry
	// count; free stacks the indices of completed ones. Entries (and their
	// waiter slices) are recycled, so the steady-state miss path allocates
	// nothing.
	slots []mshrEntry
	free  []int32
}

type mshrEntry struct {
	merged       int   // accesses merged into this entry (including the first)
	waiters      []int // warp IDs blocked on this line (-1 marks a prefetch)
	prefetch     bool  // no demand merged yet (clears on demand merge)
	origPrefetch bool  // the entry was allocated by a prefetch
	issuedAt     int64
}

// NewMSHR builds an MSHR file with the given entry count and merge capacity.
func NewMSHR(entries, mergeCap int) *MSHR {
	m := &MSHR{entries: entries, mergeCap: mergeCap}
	m.inflight.init(entries)
	return m
}

// MSHRResult is the outcome of an allocation attempt.
type MSHRResult uint8

// Allocation outcomes.
const (
	MSHRNew    MSHRResult = iota // new entry: a fill request must be sent
	MSHRMerged                   // merged into an existing in-flight entry
	MSHRFull                     // no entry or merge slot: reservation fail
)

// Allocate tries to register a miss on lineAddr for warp (warp<0 for a
// prefetch).
func (m *MSHR) Allocate(lineAddr uint64, warp int, cycle int64) MSHRResult {
	if i, ok := m.inflight.Get(lineAddr); ok {
		e := &m.slots[i]
		if e.merged >= m.mergeCap {
			return MSHRFull
		}
		e.merged++
		if warp >= 0 {
			e.waiters = append(e.waiters, warp)
			e.prefetch = false
		}
		return MSHRMerged
	}
	if m.inflight.Len() >= m.entries {
		return MSHRFull
	}
	var i int32
	if n := len(m.free); n > 0 {
		i = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		i = int32(len(m.slots))
		m.slots = append(m.slots, mshrEntry{})
	}
	e := &m.slots[i]
	*e = mshrEntry{
		merged:   1,
		waiters:  e.waiters[:0],
		prefetch: warp == PrefetchWarp,
		issuedAt: cycle,
	}
	e.origPrefetch = e.prefetch
	if warp >= 0 {
		e.waiters = append(e.waiters, warp)
	}
	m.inflight.Put(lineAddr, i)
	return MSHRNew
}

// Lookup reports whether lineAddr has an in-flight entry and whether that
// entry was allocated purely by a prefetch (no demand merged yet).
func (m *MSHR) Lookup(lineAddr uint64) (inflight, prefetchOnly bool) {
	i, ok := m.inflight.Get(lineAddr)
	if !ok {
		return false, false
	}
	return true, m.slots[i].prefetch
}

// Complete removes the entry for lineAddr and returns the warps waiting on
// it, whether the entry has had no demand merged (prefetchOnly), and whether
// it was originally allocated by a prefetch.
//
// The returned waiters slice aliases a recycled entry and is only valid
// until the next Allocate call; callers must consume it before allocating
// again (the engine wakes waiters synchronously, before any further issue).
func (m *MSHR) Complete(lineAddr uint64) (waiters []int, prefetchOnly, origPrefetch bool, ok bool) {
	i, exists := m.inflight.Get(lineAddr)
	if !exists {
		return nil, false, false, false
	}
	m.inflight.Del(lineAddr)
	m.free = append(m.free, i)
	e := &m.slots[i]
	return e.waiters, e.prefetch, e.origPrefetch, true
}

// Reset abandons every in-flight entry, recycling it onto the free list. A
// finished run can leave entries behind — staged prefetches whose request
// never drained out of the prefetch queue — and a recycled engine must not
// see them. The table, entries and waiter slices are all kept, so the
// steady-state miss path of the next run allocates nothing.
func (m *MSHR) Reset() {
	m.inflight.Clear()
	m.free = m.free[:0]
	for i := range m.slots {
		m.free = append(m.free, int32(i))
	}
}

// InFlight returns the number of occupied entries.
func (m *MSHR) InFlight() int { return m.inflight.Len() }

// Free returns the number of free entries.
func (m *MSHR) Free() int { return m.entries - m.inflight.Len() }

// MissQueue is the fixed-capacity queue of outgoing fill requests between the
// L1 and the interconnect. Congestion here is the dominant cause of
// reservation fails on recent GPU generations (§2 of the paper).
//
// Occupancy is virtual: the engine holds entries physically until their
// injection maturity (stamp + horizon, which can be far wider than the
// modeled queue residency), but a request occupies a slot only until its
// virtual injection cycle — when the modeled hardware would have handed it
// to the interconnect: after the turnaround delay, in queue order, at most
// budget entries per cycle. The virtual injection cycle is fixed at Push
// (it depends only on the entry's stamp and its predecessors), so capacity
// checks — un-aged entries plus the engine's credit for entries already
// pulled ahead whose virtual injection hasn't arrived at the owner's cycle
// — are a pure function of stamps and the clock, independent of how the
// engine batches its pulls.
type MissQueue struct {
	cap int
	// queue[head:] holds the entries in FIFO order. Pop advances head; Push
	// compacts the live entries to the front of the backing array instead
	// of growing it once popped slots make up half of it, so Pop is O(1),
	// Push amortized O(1), and a queue whose depth stays bounded stops
	// allocating.
	queue []MissRequest
	head  int
	// credit is phantom occupancy: entries the engine already drained that,
	// at the cycle this queue is being ticked at, would still have been
	// within their modeled residency.
	credit int
	// turn is the modeled minimum queue residency in cycles and budget the
	// modeled injections per cycle (turn 0: virtual injection off, every
	// physical entry counts — the legacy fixed-occupancy behaviour).
	turn   int64
	budget int
	// lastVInj / lastCnt track the tail of the virtual injection schedule:
	// the latest assigned injection cycle and how many entries it carries.
	lastVInj int64
	lastCnt  int
	// aged is the count of leading entries (from head) whose virtual
	// injection cycle has arrived at the last SetClock cycle. Injection cycles are
	// non-decreasing along the queue, so the aged region is always a prefix
	// and the cursor only advances.
	aged int
}

// MissRequest is one outgoing fill request.
type MissRequest struct {
	LineAddr uint64
	Prefetch bool
	Cycle    int64
	// VInj is the virtual injection cycle assigned by MissQueue.Push: the
	// cycle the modeled hardware would have injected this request, given
	// its stamp, the turnaround delay, and the per-cycle injection budget.
	VInj int64
}

// NewMissQueue builds a miss queue with the given capacity.
func NewMissQueue(capacity int) *MissQueue {
	return &MissQueue{cap: capacity}
}

// Reset empties the queue, keeping its backing array for reuse.
func (q *MissQueue) Reset() {
	q.queue = q.queue[:0]
	q.head = 0
	q.credit = 0
	q.aged = 0
	q.lastVInj = 0
	q.lastCnt = 0
}

// SetInjectionModel sets the virtual injection schedule's parameters: the
// minimum residency before injection (turn; 0 disables virtual occupancy)
// and the modeled injections per cycle (budget).
func (q *MissQueue) SetInjectionModel(turn int64, budget int) {
	q.turn = turn
	q.budget = budget
}

// SetClock advances the occupancy clock to now and sets the phantom credit:
// entries the engine already drained but whose virtual injection, at now,
// has not yet arrived. Always ≥ 0; the engine clears credit after each
// epoch's tick wave. The clock only moves forward.
func (q *MissQueue) SetClock(now int64, credit int) {
	q.credit = credit
	for q.aged < q.Len() && q.queue[q.head+q.aged].VInj <= now {
		q.aged++
	}
}

// SetCredit sets the phantom credit without moving the clock.
func (q *MissQueue) SetCredit(n int) { q.credit = n }

// Full reports whether the queue has no free slot: un-aged entries plus
// phantom credit reach capacity.
func (q *MissQueue) Full() bool { return q.Len()-q.aged+q.credit >= q.cap }

// Len returns the physical queue occupancy (entries awaiting the engine's
// pull, aged or not).
func (q *MissQueue) Len() int { return len(q.queue) - q.head }

// Push appends a request and assigns its virtual injection cycle; it panics
// if the queue is full (callers must check Full first — a full queue is a
// reservation fail, not a programming error). The physical queue may exceed
// cap: aged entries no longer occupy modeled slots but stay queued until
// the engine pulls them at injection maturity.
func (q *MissQueue) Push(r MissRequest) {
	if q.Full() {
		panic("cache: push to full miss queue")
	}
	if q.turn <= 0 {
		// Virtual occupancy off: the entry occupies until physically popped.
		r.VInj = 1<<62 - 1
	} else {
		c := r.Cycle + q.turn
		if c < q.lastVInj {
			c = q.lastVInj
		}
		if c == q.lastVInj {
			if q.lastCnt >= q.budget {
				c++
				q.lastVInj, q.lastCnt = c, 1
			} else {
				q.lastCnt++
			}
		} else {
			q.lastVInj, q.lastCnt = c, 1
		}
		r.VInj = c
	}
	if len(q.queue) == cap(q.queue) && q.head >= q.Len() {
		// At least half the array is popped: compacting copies no more
		// entries than were popped since the last compaction, and the
		// array only grows while live entries fill over half of it.
		n := copy(q.queue, q.queue[q.head:])
		q.queue = q.queue[:n]
		q.head = 0
	}
	q.queue = append(q.queue, r)
}

// Pop removes and returns the oldest request.
func (q *MissQueue) Pop() (MissRequest, bool) {
	if q.Len() == 0 {
		return MissRequest{}, false
	}
	r := q.queue[q.head]
	q.head++
	if q.head == len(q.queue) {
		q.queue, q.head = q.queue[:0], 0
	}
	if q.aged > 0 {
		q.aged--
	}
	return r, true
}

// Peek returns the oldest request without removing it.
func (q *MissQueue) Peek() (MissRequest, bool) {
	if q.Len() == 0 {
		return MissRequest{}, false
	}
	return q.queue[q.head], true
}
