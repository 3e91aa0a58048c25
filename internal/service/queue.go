package service

import (
	"container/heap"
	"errors"
	"sync"
)

// ErrQueueFull rejects submissions when the bounded queue is at depth: the
// admission-control signal the HTTP layer turns into 429 + Retry-After.
var ErrQueueFull = errors.New("service: job queue full")

// errQueueClosed rejects submissions after Close (graceful shutdown).
var errQueueClosed = errors.New("service: job queue closed")

// jobQueue is a blocking priority queue with bounded depth: higher-priority
// jobs pop first, equal priorities pop in submission order. Push rejects
// with ErrQueueFull past maxDepth (admission control) and errQueueClosed
// after Close, which stops intake but lets consumers drain what is already
// queued — the graceful-shutdown path.
type jobQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	heap     jobHeap
	maxDepth int // <= 0: unbounded
	closed   bool
}

func newJobQueue(maxDepth int) *jobQueue {
	q := &jobQueue{maxDepth: maxDepth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a job, or reports why it cannot.
func (q *jobQueue) Push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	if q.maxDepth > 0 && len(q.heap) >= q.maxDepth {
		return ErrQueueFull
	}
	heap.Push(&q.heap, j)
	q.cond.Signal()
	return nil
}

// Pop blocks until a job is available or the queue is closed and empty; the
// second return is false only in the latter case.
func (q *jobQueue) Pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.heap) == 0 {
		return nil, false
	}
	return heap.Pop(&q.heap).(*job), true
}

// Remove takes a specific job out of the queue (canceled before running),
// freeing its depth slot immediately. Reports whether the job was still
// queued; false means a worker already popped it (or it was never pushed).
func (q *jobQueue) Remove(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := j.live.heapIdx
	if i < 0 || i >= len(q.heap) || q.heap[i] != j {
		return false
	}
	heap.Remove(&q.heap, i)
	return true
}

// Close stops intake and wakes all blocked consumers.
func (q *jobQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len returns the number of queued jobs.
func (q *jobQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// jobHeap orders by (priority desc, job number asc). Queued jobs have
// distinct numbers: a number is taken again only after a rejected
// submission, whose jobs have all left the heap. It maintains each job's
// heapIdx (guarded by the queue lock, -1 when not in the heap) so Remove
// can excise a canceled job in O(log n) without scanning.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	a, b := h[i].live, h[j].live
	if a.spec.priority != b.spec.priority {
		return a.spec.priority > b.spec.priority
	}
	return h[i].n < h[j].n
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].live.heapIdx = i
	h[j].live.heapIdx = j
}
func (h *jobHeap) Push(x interface{}) {
	j := x.(*job)
	j.live.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.live.heapIdx = -1
	*h = old[:n-1]
	return j
}
