package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"snake/internal/cluster"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// job is one queued/running/completed simulation. snaked keeps every job
// for GET /v1/runs/{id}, so a terminal job holds only what its RunView shows
// plus a pointer to its key's shared record: finish drops live.
type job struct {
	id      string
	sweepID string
	rec     *record // shared per-key state: key, label, first result

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
// first job: the key, the display label and the result. The result is set by
// the key's first successful finish and never replaced: simulations are
// deterministic, so every later success carries equal stats (the store's
// first-write-wins rule). Failed and canceled jobs never set it. Records are
// never removed; there is one per distinct key.
type record struct {
	key   string
	label label
	st    atomic.Pointer[stats.Sim]
}

// view snapshots the job for the wire.
func (j *job) view() RunView {
	j.mu.Lock()
	defer j.mu.Unlock()
	l := &j.rec.label
	v := RunView{
		ID:     j.id,
		Bench:  l.bench,
		App:    l.app,
		Chain:  l.chain,
		Mech:   l.mech,
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

// runJob executes one job: tiered cache lookup first (memory → disk → owning
// peer), then exactly-once production under the per-key flight lock — a
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
	s.metrics.jobStarted()
	defer cancel()

	// Forwarded-in work serves local tiers only: the sender already ran the
	// peer tier, and this node is the key's owner.
	var st *stats.Sim
	var tier cluster.Tier
	if sp.noForward {
		st, tier = s.store.GetLocal(key)
	} else {
		st, tier = s.store.Get(ctx, key)
	}
	if st != nil {
		s.metrics.cacheHit()
		s.finish(j, st, nil, true, tier.String())
		return
	}
	s.metrics.cacheMiss()

	// Per-key singleflight: exactly one leader produces the result; jobs
	// that lose the race wait and re-read the cache. A leader that failed
	// (error, cancel) leaves the next waiter to claim leadership and retry.
	for {
		wait, leader := s.beginFlight(key)
		if leader {
			break
		}
		select {
		case <-wait:
		case <-ctx.Done():
			s.finish(j, nil, ctx.Err(), false, "")
			return
		}
		if st, tier := s.store.GetLocal(key); st != nil {
			s.metrics.cacheHit()
			s.finish(j, st, nil, true, tier.String())
			return
		}
	}
	st, source, err := s.produce(ctx, key, sp)
	if err == nil {
		s.store.Put(key, st)
	}
	s.endFlight(key)
	s.finish(j, st, err, false, source)
}

// beginFlight claims or joins the in-flight production of key. It returns
// leader=true when the caller must produce the result (and later call
// endFlight); otherwise wait closes when the current leader finishes.
func (s *Service) beginFlight(key string) (wait <-chan struct{}, leader bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if ch, ok := s.flight[key]; ok {
		return ch, false
	}
	ch := make(chan struct{})
	s.flight[key] = ch
	return ch, true
}

func (s *Service) endFlight(key string) {
	s.flightMu.Lock()
	ch := s.flight[key]
	delete(s.flight, key)
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
				s.metrics.forwardOK()
				return st, "forward:" + src, nil
			}
			if !errors.Is(err, cluster.ErrSelf) && ctx.Err() == nil {
				s.metrics.forwardFallback()
			}
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
		}
	}
	st, err := s.simulate(ctx, sp)
	return st, "sim", err
}

// simulate builds the workload and runs the cycle-level simulation under
// ctx. The run holds one slot of the shared CPU budget for its duration, so
// however large the worker pool, no more simulations run at once than the
// budget has slots.
func (s *Service) simulate(ctx context.Context, sp *spec) (*stats.Sim, error) {
	if err := s.budget.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.budget.Release()
	// Registry mechanism names are the prefetcher-reuse tag: a pooled engine
	// whose last run had the same tag resets its prefetchers instead of
	// building new ones (any engine serves any run). Custom snake configs
	// all normalize to mech "snake:custom", which does not identify one
	// configuration, so they use the untagged path.
	tag := sp.mech
	if sp.snake != nil {
		tag = ""
	}
	opt := sim.Options{
		Config:        sp.gpu,
		NewPrefetcher: sp.factory,
		Context:       ctx,
	}
	if sp.app != "" {
		// Application job: the interned app was assembled (and validated) at
		// normalize time, so this fetch is a pure cache hit. The cache and the
		// wire carry the aggregate statistics; per-launch breakdowns are a
		// local concern (snakesim -app prints them).
		a, _, err := workloads.Shared().App(sp.app, sp.scale, sp.gpu.NumSM, sp.split)
		if err != nil {
			return nil, err
		}
		opt.ChainPersistence = sp.chain
		out, err := harness.SharedEnginePool().RunApp(a, opt, tag)
		if err != nil {
			return nil, err
		}
		return &out.Stats, nil
	}
	k, err := workloads.Shared().Kernel(sp.bench, sp.scale)
	if err != nil {
		return nil, err
	}
	out, err := harness.SharedEnginePool().Run(k, opt, tag)
	if err != nil {
		return nil, err
	}
	return &out.Stats, nil
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
		s.metrics.observeWall(j.rec.label.workload(), float64(wall)/float64(time.Millisecond))
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
	s.metrics.jobDroppedQueued()
	return true
}
