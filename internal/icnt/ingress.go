package icnt

import (
	"fmt"
	"sort"
)

// Ingress is a cycle-stamped FIFO delivery queue: the typed port through
// which one side of the SM/memory shard boundary receives in-flight messages
// from the other. Senders stamp each message with its delivery cycle at
// injection time (the network's TrySend already serializes bandwidth, so
// stamps are non-decreasing in send order); the receiver drains messages due
// at or before its current cycle with PopDue.
//
// The drain order is deterministic by construction — strict FIFO, which
// equals (cycle, send-seq) order because stamps never decrease — so a
// simulation's results cannot depend on which goroutine drains the queue or
// when. This is the property the engine's parallel executor relies on: all
// pushes happen in the serial memory phase (fixed order), all pops happen
// either in the serial phase or in the owning shard's tick, and the sequence
// of popped messages is identical either way.
//
// The queue is a growable ring: steady-state traffic reuses the backing
// array, keeping the simulator's cycle loop allocation-free.
type Ingress[T any] struct {
	buf  []Stamped[T]
	head int
	len  int
	last int64 // last pushed stamp, for the monotonicity check
}

// Stamped is one queued message with its delivery cycle. It is exported so
// DueView can hand zero-copy windows of the ring to consumers (the engine's
// parallel route phase) without repacking entries.
type Stamped[T any] struct {
	Cycle int64
	Msg   T
}

// Push appends a message due at the given cycle. Stamps must be
// non-decreasing across pushes (the serialized network guarantees this);
// a decreasing stamp is a programming error and panics, because it would
// silently break the FIFO-equals-cycle-order property PopDue relies on.
func (q *Ingress[T]) Push(cycle int64, msg T) {
	if q.len > 0 && cycle < q.last {
		panic(fmt.Sprintf("icnt: ingress stamp went backwards: %d after %d", cycle, q.last))
	}
	q.last = cycle
	if q.len == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.len)%len(q.buf)] = Stamped[T]{Cycle: cycle, Msg: msg}
	q.len++
}

// grow doubles the ring, unrolling it so head returns to zero.
func (q *Ingress[T]) grow() {
	n := 2 * len(q.buf)
	if n == 0 {
		n = 8
	}
	next := make([]Stamped[T], n)
	for i := 0; i < q.len; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head = 0
}

// PopDue removes and returns the oldest message if it is due at or before
// now. Messages come out in exactly the order they were pushed.
func (q *Ingress[T]) PopDue(now int64) (T, bool) {
	if q.len == 0 || q.buf[q.head].Cycle > now {
		var zero T
		return zero, false
	}
	e := &q.buf[q.head]
	msg := e.Msg
	var zero Stamped[T]
	*e = zero // release references for GC
	q.head = (q.head + 1) % len(q.buf)
	q.len--
	return msg, true
}

// DrainTo appends every message due at or before now to buf and returns the
// extended slice, in push order (same sequence PopDue would produce). The
// append style lets hot-loop callers reuse a buffer across cycles without a
// per-call closure allocation.
func (q *Ingress[T]) DrainTo(now int64, buf []T) []T {
	for q.len > 0 && q.buf[q.head].Cycle <= now {
		e := &q.buf[q.head]
		buf = append(buf, e.Msg)
		var zero Stamped[T]
		*e = zero
		q.head = (q.head + 1) % len(q.buf)
		q.len--
	}
	return buf
}

// DueView returns the messages due at or before now as up to two contiguous
// windows of the ring (the prefix wraps across the array end at most once),
// in push order: a first, then b. Nothing is removed or copied — callers that
// consume the view pair it with Drop(len(a)+len(b)). Because stamps are
// non-decreasing, the due set is always a prefix, located by binary search.
//
// The view stays valid until the next Push, Pop, Drain, Drop or Reset; the
// engine's parallel route phase takes it after all of an epoch's pushes and
// drops it at the epoch merge, so work units may read it concurrently in
// between.
func (q *Ingress[T]) DueView(now int64) (a, b []Stamped[T]) {
	n := sort.Search(q.len, func(i int) bool {
		return q.buf[(q.head+i)%len(q.buf)].Cycle > now
	})
	if n == 0 {
		return nil, nil
	}
	if end := q.head + n; end <= len(q.buf) {
		return q.buf[q.head:end], nil
	}
	return q.buf[q.head:], q.buf[:q.head+n-len(q.buf)]
}

// Drop removes the oldest n messages (a consumed DueView prefix), zeroing
// their slots so references are released. Dropping more than Len panics: it
// would corrupt the ring accounting.
func (q *Ingress[T]) Drop(n int) {
	if n <= 0 {
		return
	}
	if n > q.len {
		panic(fmt.Sprintf("icnt: ingress drop %d of %d queued", n, q.len))
	}
	if end := q.head + n; end <= len(q.buf) {
		clear(q.buf[q.head:end])
	} else {
		clear(q.buf[q.head:])
		clear(q.buf[:end-len(q.buf)])
	}
	q.head = (q.head + n) % len(q.buf)
	q.len -= n
}

// NextCycle returns the delivery cycle of the oldest queued message, or -1
// when the queue is empty. The engine's epoch cutter (actBound) uses it.
func (q *Ingress[T]) NextCycle() int64 {
	if q.len == 0 {
		return -1
	}
	return q.buf[q.head].Cycle
}

// Len returns the number of queued messages.
func (q *Ingress[T]) Len() int { return q.len }

// Reset empties the queue and clears the stamp-monotonicity watermark while
// keeping the ring's backing array, so a recycled queue starts a new run at
// its steady-state capacity. Stale entries are zeroed in case T carries
// references.
func (q *Ingress[T]) Reset() {
	clear(q.buf)
	q.head = 0
	q.len = 0
	q.last = 0
}
