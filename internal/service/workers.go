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
// plus a pointer to its key's shared record: end drops live. Its ID is not
// stored but formatted from its number (job.id).
type job struct {
	rec *record // shared per-key state: key, bench, mech, first result
	n   int     // the ID number: the job sits at Service.jobs[n-1]

	mu     sync.Mutex
	live   *jobLive // nil once terminal
	err    error
	wall   time.Duration // from start to finish; 0 for a job that never ran
	status jobStatus
	source resultSource // where the result came from (RunView.Source)
}

// jobLive is what a job needs only until it is terminal: the normalized
// spec, its sweep, its queue position, its waiters' channel, and the start
// time and cancel func of its run. The queue reads heapIdx and
// spec.priority under its own lock while the job is queued; the worker
// running the job reads spec without j.mu. Only the goroutine that makes the
// job terminal clears it (job.end), under j.mu.
type jobLive struct {
	spec    spec
	sw      *sweep             // the sweep the job is a cell of; nil for a run
	done    chan struct{}      // made by the first wait, closed by end
	heapIdx int                // position in the priority heap (queue lock; -1 when out)
	start   time.Time          // when a worker picked the job up
	cancel  context.CancelFunc // non-nil while running
}

// jobStatus is a job's Status in one byte.
type jobStatus uint8

// The job states, in Status order.
const (
	jobQueued jobStatus = iota
	jobRunning
	jobDone
	jobFailed
	jobCanceled
)

var statuses = [...]Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled}

// resultSource is a job's RunView.Source in one byte.
type resultSource uint8

// The result sources, in sourceNames order.
const (
	srcNone resultSource = iota // the job produced no result
	srcMemory
	srcDisk
	srcSim
	srcFwdMemory
	srcFwdDisk
	srcFwdSim
)

var sourceNames = [...]string{"", "memory", "disk", "sim", "forward:memory", "forward:disk", "forward:sim"}

// cached reports whether a result from src simulated nothing (RunView.Cached).
func (src resultSource) cached() bool {
	return src == srcMemory || src == srcDisk || src == srcFwdMemory || src == srcFwdDisk
}

// tierSource is the source of a result the store held in tier t, memory or
// disk.
func tierSource(t cluster.Tier) resultSource {
	if t == cluster.TierDisk {
		return srcDisk
	}
	return srcMemory
}

// forwardSource is the source of a result the owning peer answered, from
// the tier the peer names: "memory", "disk", or "sim". Any other name reads
// as "sim", as the transport reads a missing one.
func forwardSource(tier string) resultSource {
	switch tier {
	case "memory":
		return srcFwdMemory
	case "disk":
		return srcFwdDisk
	}
	return srcFwdSim
}

// closedDone is what wait returns for a terminal job: a job that is already
// finished has no channel of its own.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// wait returns a channel that is closed once the job is terminal. Only a
// job still queued or running when first waited on makes a channel.
func (j *job) wait() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.live == nil {
		return closedDone
	}
	if j.live.done == nil {
		j.live.done = make(chan struct{})
	}
	return j.live.done
}

// end releases a job that has just reached a terminal state, with its
// metrics counted: it wakes the job's waiters and drops its live state. It
// returns the job's sweep, which the caller notifies once j.mu is released.
// The caller holds j.mu.
func (j *job) end() *sweep {
	sw := j.live.sw
	if j.live.done != nil {
		close(j.live.done)
	}
	j.live = nil
	return sw
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
		ID:     j.id(),
		Bench:  j.rec.bench,
		Mech:   j.rec.mech,
		Key:    j.rec.key,
		Status: statuses[j.status],
		Cached: j.source.cached(),
		Source: sourceNames[j.source],
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.status == jobDone {
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
	if j.status != jobQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.status = jobRunning
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
		s.finish(j, st, nil, srcMemory)
		return
	}
	if st, tier := s.store.Get(ctx, key); st != nil {
		s.metrics.cacheHits.Add(1)
		s.finish(j, st, nil, tierSource(tier))
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
			s.finish(j, nil, ctx.Err(), srcNone)
			return
		}
		if st := j.rec.st.Load(); st != nil {
			s.metrics.cacheHits.Add(1)
			s.finish(j, st, nil, srcMemory)
			return
		}
	}
	st, src, err := s.produce(ctx, key, sp)
	if err == nil {
		s.store.Put(key, st)
	}
	// finish sets the record's result, so the waiters woken next find it.
	s.finish(j, st, err, src)
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
func (s *Service) produce(ctx context.Context, key string, sp *spec) (*stats.Sim, resultSource, error) {
	if s.clu != nil && !sp.noForward {
		body, err := json.Marshal(sp.wireRequest())
		if err == nil {
			st, tier, err := s.clu.Execute(ctx, key, body)
			if err == nil {
				s.metrics.forwardsOK.Add(1)
				return st, forwardSource(tier), nil
			}
			if !errors.Is(err, cluster.ErrSelf) && ctx.Err() == nil {
				s.metrics.forwardFallbacks.Add(1)
			}
			if ctx.Err() != nil {
				return nil, srcNone, ctx.Err()
			}
		}
	}
	st, err := s.runner.Simulate(ctx, sp.key)
	return st, srcSim, err
}

// finish moves a running job to its terminal state, updates metrics and
// ends the job. A success sets the key's result unless an earlier one did.
// The metrics are counted before the job's waiters wake.
func (s *Service) finish(j *job, st *stats.Sim, err error, src resultSource) {
	if err == nil {
		j.rec.st.CompareAndSwap(nil, st)
	}
	j.mu.Lock()
	j.wall = time.Since(j.live.start)
	j.err, j.source = err, src
	switch {
	case err == nil:
		j.status = jobDone
	case errors.Is(err, context.Canceled):
		j.status = jobCanceled
	default:
		j.status = jobFailed
	}
	s.metrics.jobFinished(j.status)
	if err == nil && src == srcSim {
		s.metrics.observeWall(j.rec.bench, float64(j.wall)/float64(time.Millisecond))
	}
	sw := j.end()
	j.mu.Unlock()
	sw.notify(j)
}

// cancelJob cancels a queued or running job; terminal jobs are left alone.
func (s *Service) cancelJob(j *job) {
	if sw, ok := s.dropQueued(j); ok {
		sw.notify(j)
		return
	}
	j.mu.Lock()
	var cancel context.CancelFunc
	if j.status == jobRunning {
		cancel = j.live.cancel
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel() // runJob observes the aborted sim and finishes the job
	}
}

// dropQueued moves a still-queued job straight to canceled, takes it out of
// the priority heap so its depth slot frees now, and ends it. It returns the
// job's sweep, for the caller to notify, and reports false when the job had
// already left the queued state. Safe while holding s.mu: it only takes
// j.mu and the queue lock.
func (s *Service) dropQueued(j *job) (*sweep, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != jobQueued {
		return nil, false
	}
	j.status = jobCanceled
	j.err = context.Canceled
	// A worker that already popped the job (Remove returns false) skips
	// non-queued jobs without touching live; once Remove returns, the heap
	// no longer reads it either.
	s.queue.Remove(j)
	s.metrics.canceled.Add(1)
	return j.end(), true
}
