package icnt

import "fmt"

// Ingress is a cycle-stamped FIFO delivery queue: the typed port through
// which one side of the SM/memory boundary receives in-flight messages
// from the other. Senders stamp each message with its delivery cycle at
// injection time (the network's TrySend already serializes bandwidth, so
// stamps are non-decreasing in send order); the receiver drains messages due
// at or before its current cycle with PopDue.
//
// The drain order is deterministic by construction — strict FIFO, which
// equals (cycle, send-seq) order because stamps never decrease — so a
// simulation's results cannot depend on when the queue is drained. This is
// the property the engine's epoch loop relies on: all pushes happen in the
// drain or merge phase (fixed order), each receiver pops only what is due at
// its current sub-cycle — an SM in the drain phase, a partition in its own
// tick — and the sequence of popped messages is identical either way.
//
// The queue is a growable ring: steady-state traffic reuses the backing
// array, keeping the simulator's cycle loop allocation-free.
type Ingress[T any] struct {
	buf  []Stamped[T]
	head int
	len  int
	last int64 // last pushed stamp, for the monotonicity check
}

// Stamped is one message with its delivery cycle: the ring's entry type,
// exported so a receiver can keep popped messages with their stamps (an
// SM's inbox holds the fills it was delivered this epoch).
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

// NextCycle returns the delivery cycle of the oldest queued message, or -1
// when the queue is empty. The engine's epoch cutter (actBound) and its
// CTA-redispatch cap use it.
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
