package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"snake/internal/cluster"
	"snake/internal/stats"
)

// job is one queued/running/completed simulation. snaked keeps every job
// for GET /v1/runs/{id}, so a terminal job holds only what its RunView shows
// plus a pointer to its key's shared record: finish drops live.
type job struct {
	id      string
	sweepID string
	rec     *record // shared per-key state: key, bench, mech, first result

	mu     sync.Mutex
	live   *jobLive // nil once terminal
	status Status
	cached bool
	source string // where the result came from (RunView.Source)
	err    error
	wall   time.Duration // from start to finish; 0 for a job that never ran

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// jobLive is what a job needs only until it is terminal: the normalized
// spec, its queue position, and the start time and cancel func of its run.
// The queue reads seq, heapIdx and spec.priority under its own lock while
// the job is queued; the worker running the job reads spec without j.mu.
// Only the goroutine that makes the job terminal clears it, under j.mu.
type jobLive struct {
	spec    spec
	seq     int64              // FIFO order among equal priorities
	heapIdx int                // position in the priority heap (queue lock; -1 when out)
	start   time.Time          // when a worker picked the job up
	cancel  context.CancelFunc // non-nil while running
}

// record is the state every job of one RunKey shares, created by the key's
// first job: the key, the bench and mech a run view shows, the result, and
// the key's in-flight production. The result is set by the key's first
// successful finish and never replaced: simulations are deterministic, so
// every later success carries equal stats (the store's first-write-wins
// rule). Failed and canceled jobs never set it. Records are never removed;
// there is one per distinct key.
type record struct {
	key, bench, mech string
	st               atomic.Pointer[stats.Sim]
	// flight is non-nil while one job of the key produces its result, and
	// closes when that job ends; guarded by Service.flightMu.
	flight chan struct{}
}

// view snapshots the job for the wire.
func (j *job) view() RunView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := RunView{
		ID:     j.id,
		Bench:  j.rec.bench,
		Mech:   j.rec.mech,
		Key:    j.rec.key,
		Status: j.status,
		Cached: j.cached,
		Source: j.source,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.status == StatusDone {
		v.Result = summarize(j.rec.st.Load())
	}
	if j.wall > 0 {
		v.WallMS = float64(j.wall) / float64(time.Millisecond)
	}
	return v
}

// worker is one pool goroutine: pop jobs until the queue closes and drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job: its key's record first, then the store (memory
// → disk), then exactly-once production under the key's flight — a
// forwarded execution on the owning peer when clustered, a local simulation
// otherwise or as the degradation path.
func (s *Service) runJob(j *job) {
	j.mu.Lock()
	if j.status != StatusQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.live.start = time.Now()
	sp, key := &j.live.spec, j.rec.key
	var ctx context.Context
	var cancel context.CancelFunc
	if sp.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, sp.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j.live.cancel = cancel
	j.mu.Unlock()
	s.metrics.running.Add(1)
	defer cancel()

	// Once any job of the key has succeeded, its record holds the result,
	// so a repeat finishes from memory without reading a cache tier.
	if st := j.rec.st.Load(); st != nil {
		s.metrics.cacheHits.Add(1)
		s.finish(j, st, nil, true, cluster.TierMemory.String())
		return
	}
	if st, tier := s.store.Get(ctx, key); st != nil {
		s.metrics.cacheHits.Add(1)
		s.finish(j, st, nil, true, tier.String())
		return
	}
	s.metrics.cacheMisses.Add(1)

	// Per-key singleflight: exactly one leader produces the result, and
	// jobs that lose the race wait and finish from the record. A leader
	// that failed (error, cancel) leaves the next waiter to claim leadership
	// and retry.
	for {
		wait, leader := s.beginFlight(j.rec)
		if leader {
			break
		}
		select {
		case <-wait:
		case <-ctx.Done():
			s.finish(j, nil, ctx.Err(), false, "")
			return
		}
		if st := j.rec.st.Load(); st != nil {
			s.metrics.cacheHits.Add(1)
			s.finish(j, st, nil, true, cluster.TierMemory.String())
			return
		}
	}
	st, source, err := s.produce(ctx, key, sp)
	if err == nil {
		s.store.Put(key, st)
	}
	// A forwarded hit simulated nothing, so it is cached like a local hit.
	cached := source == "forward:memory" || source == "forward:disk"
	// finish sets the record's result, so the waiters woken next find it.
	s.finish(j, st, err, cached, source)
	s.endFlight(j.rec)
}

// beginFlight claims or joins the in-flight production of rec's key. It
// returns leader=true when the caller must produce the result (and later
// call endFlight); otherwise wait closes when the current leader finishes.
func (s *Service) beginFlight(rec *record) (wait <-chan struct{}, leader bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if rec.flight != nil {
		return rec.flight, false
	}
	rec.flight = make(chan struct{})
	return rec.flight, true
}

func (s *Service) endFlight(rec *record) {
	s.flightMu.Lock()
	ch := rec.flight
	rec.flight = nil
	s.flightMu.Unlock()
	close(ch)
}

// produce computes a missing result: forwarded to the key's owning peer
// when this node is not the owner, locally otherwise. Every forwarding
// failure — owner down, saturated, or erroring — degrades to local compute;
// a dead peer costs duplicated work, never a failed job.
func (s *Service) produce(ctx context.Context, key string, sp *spec) (*stats.Sim, string, error) {
	if s.clu != nil && !sp.noForward {
		body, err := json.Marshal(sp.wireRequest())
		if err == nil {
			st, src, err := s.clu.Execute(ctx, key, body)
			if err == nil {
				s.metrics.forwardsOK.Add(1)
				return st, "forward:" + src, nil
			}
			if !errors.Is(err, cluster.ErrSelf) && ctx.Err() == nil {
				s.metrics.forwardFallbacks.Add(1)
			}
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
		}
	}
	st, err := s.runner.Simulate(ctx, sp.key)
	return st, "sim", err
}

// finish moves a running job to its terminal state, releases its live
// state and updates metrics. A success sets the key's result unless an
// earlier one did.
func (s *Service) finish(j *job, st *stats.Sim, err error, cached bool, source string) {
	if err == nil {
		j.rec.st.CompareAndSwap(nil, st)
	}
	j.mu.Lock()
	j.wall = time.Since(j.live.start)
	j.err, j.cached, j.source = err, cached, source
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, context.Canceled):
		j.status = StatusCanceled
	default:
		j.status = StatusFailed
	}
	j.live = nil
	status, wall := j.status, j.wall
	j.mu.Unlock()
	s.metrics.jobFinished(status)
	if err == nil && !cached && source == "sim" {
		s.metrics.observeWall(j.rec.bench, float64(wall)/float64(time.Millisecond))
	}
	close(j.done)
	s.notifySweep(j)
}

// cancelJob cancels a queued or running job; terminal jobs are left alone.
func (s *Service) cancelJob(j *job) {
	if s.dropQueued(j) {
		close(j.done)
		s.notifySweep(j)
		return
	}
	j.mu.Lock()
	var cancel context.CancelFunc
	if j.status == StatusRunning {
		cancel = j.live.cancel
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel() // runJob observes the aborted sim and finishes the job
	}
}

// dropQueued moves a still-queued job straight to canceled, takes it out of
// the priority heap so its depth slot frees now, and releases its live
// state. It reports false when the job had already left the queued state.
// The caller closes done. Safe while holding s.mu: it only takes j.mu, the
// queue lock, and the metrics lock.
func (s *Service) dropQueued(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusCanceled
	j.err = context.Canceled
	// A worker that already popped the job (Remove returns false) skips
	// non-queued jobs without touching live; once Remove returns, the heap
	// no longer reads it either.
	s.queue.Remove(j)
	j.live = nil
	s.metrics.canceled.Add(1)
	return true
}
