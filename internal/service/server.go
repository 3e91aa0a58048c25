package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"snake/internal/cluster"
	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/workloads"
)

// Options configures a Service.
type Options struct {
	// Workers sizes the job pool: how many jobs can be in flight at once
	// (default: GOMAXPROCS). CPU use is governed by Budget, not Workers — a
	// worker whose job cannot get a budget slot waits its turn.
	Workers int
	// GPU is the default hardware configuration (default: Scaled(4, 64)).
	GPU *config.GPU
	// Scale is the default workload scale (default: DefaultScale).
	Scale *workloads.Scale
	// Deprecated: ignored; the engine is serial. Kept only because
	// perfbench/svc.go still sets it.
	Parallelism int
	// Budget is the CPU-slot budget each simulation holds one slot of
	// (default: the process-wide harness.SharedBudget, shared with any
	// harness.Runner in the same process so the two pools cannot
	// oversubscribe the host together).
	Budget *harness.Budget

	// QueueMax bounds the job queue depth; submissions past it are rejected
	// with ErrQueueFull (HTTP 429 + Retry-After). 0 means unbounded.
	QueueMax int
	// CacheMaxBytes bounds the in-memory result-cache tier; eviction
	// offloads to CacheDir when set, else drops. 0 means unbounded.
	CacheMaxBytes int64
	// CacheDir enables the disk tier: one file of fixed-size result slots
	// there, written through on every admission, which survives restarts.
	// Empty disables it.
	CacheDir string
	// Self is this node's advertised base URL; with Peers it joins the node
	// to a cluster. Ignored (standalone) when Peers is empty, and vice
	// versa.
	Self string
	// Peers are the other cluster members' advertised base URLs. Sweep
	// cells are owned by rendezvous-hashing their RunKey across
	// {Self} ∪ Peers; misses on non-owned keys are fetched from or
	// forwarded to the owner.
	Peers []string
	// PeerInflight caps concurrently forwarded jobs per peer (default 4).
	PeerInflight int
	// PeerDownFor overrides how long an erroring peer stays out of rotation
	// (default 10s; tests shorten it).
	PeerDownFor time.Duration
	// PeerExecTimeout bounds one forwarded execution (default 2m); expiry
	// degrades to local compute. <0 disables the bound.
	PeerExecTimeout time.Duration
}

// ErrDraining rejects submissions during graceful shutdown.
var ErrDraining = errors.New("service: shutting down")

// Service is the snaked core: job registry, priority queue, worker pool,
// result cache, and metrics. Wrap Handler in an http.Server to expose it.
type Service struct {
	// runner simulates every local job (Runner.Simulate); its Cfg, Scale
	// and Budget are the service's defaults.
	runner  *harness.Runner
	workers int
	queue   *jobQueue
	store   *cluster.Store
	clu     *cluster.Cluster // nil when standalone
	metrics *metrics

	// peerSlots is the reserved capacity for forwarded-in peer work, sized
	// like the worker pool but separate from it. Workers may block forwarding
	// a job *out* to an owning peer; if forwarded-in jobs had to wait for
	// those same workers, two nodes forwarding to each other could wedge with
	// every worker blocked and every forwarded-in job queued behind them.
	// Serving peer work on its own slots makes that circular wait impossible;
	// CPU stays bounded because simulations draw from the shared budget
	// either way. When the slots are exhausted the peer endpoint answers 429
	// and the sender computes locally.
	peerSlots chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*job
	records   map[recordKey]*record // one per distinct key
	sweeps    map[string]*sweep
	nextJob   int64
	nextSweep int64
	draining  bool

	// flight dedupes concurrent identical work: one leader per RunKey
	// simulates (or forwards); same-key jobs wait and re-read the cache, so
	// a key is produced at most once per node — and, with rendezvous
	// forwarding, at most once per cluster — under normal operation.
	flightMu sync.Mutex
	flight   map[string]chan struct{}
}

// sweep groups the jobs of one POST /v1/sweeps submission and fans
// terminal-state notifications out to stream subscribers.
type sweep struct {
	id     string
	jobIDs []string

	mu      sync.Mutex
	subs    map[int]chan *job
	nextSub int
}

// New starts a service with its worker pool running.
func New(opt Options) *Service {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	runner := harness.NewRunner()
	runner.Store = workloads.Shared() // explicit: /metrics reports its bytes
	if opt.GPU != nil {
		runner.Cfg = *opt.GPU
	}
	if opt.Scale != nil {
		runner.Scale = *opt.Scale
	}
	if opt.Budget != nil {
		runner.Budget = opt.Budget
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		runner:     runner,
		workers:    opt.Workers,
		queue:      newJobQueue(opt.QueueMax),
		store:      cluster.NewStore(cluster.StoreOptions{MaxBytes: opt.CacheMaxBytes, Dir: opt.CacheDir}),
		metrics:    newMetrics(),
		peerSlots:  make(chan struct{}, opt.Workers),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		records:    make(map[recordKey]*record),
		sweeps:     make(map[string]*sweep),
		flight:     make(map[string]chan struct{}),
	}
	if len(opt.Peers) > 0 && opt.Self != "" {
		s.clu = cluster.New(cluster.Options{
			Self: opt.Self, Peers: opt.Peers,
			PeerInflight: opt.PeerInflight, DownFor: opt.PeerDownFor,
			ExecTimeout: opt.PeerExecTimeout,
		})
		// Tier 3 of the store: after a local miss, ask the owning peer's
		// cache before considering any compute.
		s.store.SetPeerFetch(s.clu.FetchResult)
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

// Shutdown stops intake and drains: queued and running jobs complete
// normally. If ctx expires first, running simulations are aborted through
// their contexts and ctx.Err is returned. Once drained it closes the result
// store's disk tier.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	// Every job has finished, so nothing writes the store any more; a late
	// peer cache lookup now misses the disk tier instead of reading it.
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("service: closing the result store: %w", cerr)
	}
	return err
}

// maxTimeoutMS is the largest timeout_ms whose duration fits in a
// time.Duration; a larger one would wrap to a negative or tiny timeout.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// normalize applies a RunRequest's overrides to the service's defaults and
// returns its spec: the canonical, validated RunKey (harness.RunKey.Normalize)
// with the request's priority and timeout.
func (s *Service) normalize(req RunRequest) (spec, error) {
	if req.Snake != nil && req.Mech != "" {
		return spec{}, errors.New("mech and snake are exclusive: snake runs its config as mechanism snake:custom")
	}
	k := s.runner.Key(req.Bench, req.Mech)
	if req.Snake != nil {
		k.Mech, k.Snake = harness.CustomSnake, req.Snake
	}
	if req.GPU != nil {
		k.GPU = *req.GPU
	}
	if req.Scale != nil {
		k.Scale = *req.Scale
	}
	// Checked before anything is built: the store keeps every trace.
	k, err := k.Normalize()
	if err != nil {
		return spec{}, err
	}
	if req.TimeoutMS < 0 || req.TimeoutMS > maxTimeoutMS {
		return spec{}, fmt.Errorf("timeout_ms %d must be in [0, %d]", req.TimeoutMS, maxTimeoutMS)
	}
	return spec{key: k, priority: req.Priority, timeout: time.Duration(req.TimeoutMS) * time.Millisecond}, nil
}

// Submit validates and enqueues one job.
func (s *Service) Submit(req RunRequest) (*job, error) {
	sp, err := s.normalize(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(sp, "")
}

// submitPeer accepts a job forwarded by a peer. Unlike client submissions
// it never enters the worker queue: forwarded-in work runs on its own
// goroutine against the reserved peerSlots capacity (acquired by the
// caller), so it can make progress even when every worker is itself blocked
// forwarding work out — the circular wait that would otherwise deadlock two
// mutually-forwarding nodes. The job is marked noForward: this node is the
// key's owner, and owners never forward.
func (s *Service) submitPeer(req RunRequest) (*job, error) {
	sp, err := s.normalize(req)
	if err != nil {
		return nil, err
	}
	sp.noForward = true
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	j := s.newJobLocked(sp, "")
	s.metrics.jobSubmitted()
	// Registered under s.mu before Shutdown can start waiting, so the drain
	// covers this job like any worker's.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runJob(j)
	}()
	return j, nil
}

// newJobLocked creates and registers a job, and its key's record if it is
// the key's first job; the caller holds s.mu. Only a new record costs a
// RunKey hash.
func (s *Service) newJobLocked(sp spec, sweepID string) *job {
	s.nextJob++
	rk := sp.recordKey()
	rec := s.records[rk]
	if rec == nil {
		rec = &record{key: sp.key.Hash(), bench: sp.key.Bench, mech: sp.key.Mech}
		s.records[rk] = rec
	}
	j := &job{
		id:      fmt.Sprintf("r%06d", s.nextJob),
		sweepID: sweepID,
		rec:     rec,
		live:    &jobLive{spec: sp, seq: s.nextJob, heapIdx: -1},
		status:  StatusQueued,
		done:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// enqueueLocked creates and queues a job; the caller holds s.mu.
func (s *Service) enqueueLocked(sp spec, sweepID string) (*job, error) {
	if s.draining {
		return nil, ErrDraining
	}
	j := s.newJobLocked(sp, sweepID)
	if err := s.queue.Push(j); err != nil {
		delete(s.jobs, j.id)
		if errors.Is(err, ErrQueueFull) {
			s.metrics.queueRejectedInc()
			return nil, err
		}
		// Close raced ahead of the draining flag.
		return nil, ErrDraining
	}
	s.metrics.jobSubmitted()
	return j, nil
}

// sweepSpecs expands a sweep into its cells and normalizes each one, in
// submission order (each bench across mechs). Nothing is enqueued; one
// invalid cell rejects the whole sweep.
func (s *Service) sweepSpecs(req SweepRequest) ([]spec, error) {
	mechs := req.Mechs
	if req.Snake != nil {
		if len(mechs) > 0 {
			return nil, errors.New("mechs and snake are exclusive: snake runs its config as mechanism snake:custom")
		}
		mechs = []string{""}
	}
	if len(req.Benches) == 0 || len(mechs) == 0 {
		return nil, errors.New("sweep needs at least one benchmark and one mechanism (or a snake config)")
	}
	// Sized up front: append's regrowth was a large share of a warm
	// re-sweep's allocation. Capped at the full bench × mechanism grid, so
	// a long list of bad names allocates no more before its rejection.
	grid := len(workloads.Names()) * len(harness.MechanismNames())
	specs := make([]spec, 0, min(len(req.Benches)*len(mechs), grid))
	cell := func(r RunRequest) error {
		r.Snake = req.Snake
		r.GPU, r.Scale = req.GPU, req.Scale
		r.Priority, r.TimeoutMS = req.Priority, req.TimeoutMS
		sp, err := s.normalize(r)
		if err != nil {
			return err
		}
		specs = append(specs, sp)
		return nil
	}
	for _, b := range req.Benches {
		for _, m := range mechs {
			if err := cell(RunRequest{Bench: b, Mech: m}); err != nil {
				return nil, err
			}
		}
	}
	return specs, nil
}

// SubmitSweep validates and enqueues a bench×mech grid.
func (s *Service) SubmitSweep(req SweepRequest) (*sweep, []*job, error) {
	specs, err := s.sweepSpecs(req)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSweep++
	sw := &sweep{id: fmt.Sprintf("s%04d", s.nextSweep), subs: make(map[int]chan *job)}
	jobs := make([]*job, 0, len(specs))
	for _, sp := range specs {
		j, err := s.enqueueLocked(sp, sw.id)
		if err != nil {
			// All-or-nothing admission: cancel the cells already enqueued so
			// a rejected sweep leaves no stray work behind. Each is also
			// removed from the heap so it frees its depth slot immediately
			// instead of inflating the queue until a worker pops and skips
			// it, and from the job table, since no client learns its ID. A
			// cell a worker already popped still runs to its end.
			for _, prev := range jobs {
				if s.dropQueued(prev) {
					close(prev.done)
				}
				delete(s.jobs, prev.id)
			}
			return nil, nil, err
		}
		sw.jobIDs = append(sw.jobIDs, j.id)
		jobs = append(jobs, j)
	}
	s.sweeps[sw.id] = sw
	return sw, jobs, nil
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Handler returns the HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancelRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleStreamSweep)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("POST /v1/peer/execute", s.handlePeerExecute)
	return mux
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var clu *cluster.Snapshot
	if s.clu != nil {
		snap := s.clu.Snap()
		clu = &snap
	}
	s.mu.Lock()
	jobs, records := len(s.jobs), len(s.records)
	s.mu.Unlock()
	s.metrics.render(w, s.queue.Len(), jobs, records, s.runner.Store.Bytes(), s.store.Snap(), clu)
}

func (s *Service) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	full := workloads.FullNames()
	v := BenchmarksView{Mechanisms: harness.MechanismNames()}
	for _, b := range workloads.Names() {
		v.Benchmarks = append(v.Benchmarks, BenchInfo{Name: b, FullName: full[b]})
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Service) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := s.decodeRequest(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		s.writeSubmitErr(w, err)
		return
	}
	if r.URL.Query().Get("wait") == "" {
		writeRun(w, http.StatusAccepted, j.view())
		return
	}
	// Synchronous mode: the client holding the connection is the job's
	// owner, so a disconnect cancels the simulation.
	select {
	case <-j.done:
		writeRun(w, http.StatusOK, j.view())
	case <-r.Context().Done():
		s.cancelJob(j)
		<-j.done
	}
}

func (s *Service) handleGetRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such run %q", r.PathValue("id")))
		return
	}
	writeRun(w, http.StatusOK, j.view())
}

func (s *Service) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such run %q", r.PathValue("id")))
		return
	}
	s.cancelJob(j)
	writeRun(w, http.StatusOK, j.view())
}

func (s *Service) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decodeRequest(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sw, jobs, err := s.SubmitSweep(req)
	if err != nil {
		s.writeSubmitErr(w, err)
		return
	}
	v := SweepView{ID: sw.id, Total: len(jobs), Pending: len(jobs), Jobs: views(jobs)}
	writeSweep(w, http.StatusAccepted, &v)
}

func (s *Service) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw, ok := s.sweeps[r.PathValue("id")]
	var jobs []*job
	if ok {
		jobs = make([]*job, 0, len(sw.jobIDs))
		for _, id := range sw.jobIDs {
			jobs = append(jobs, s.jobs[id])
		}
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such sweep %q", r.PathValue("id")))
		return
	}
	v := SweepView{ID: sw.id, Total: len(jobs), Jobs: views(jobs)}
	for i := range v.Jobs {
		if !v.Jobs[i].Status.Terminal() {
			v.Pending++
		}
	}
	v.Done = v.Pending == 0
	writeSweep(w, http.StatusOK, &v)
}

// writeSubmitErr maps submission errors to HTTP statuses. A full queue gets
// 429 plus a Retry-After estimated from the backlog, so well-behaved
// clients back off proportionally to the saturation.
func (s *Service) writeSubmitErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// retryAfterSeconds estimates queue drain time: backlog over worker count,
// clamped to [1, 60] seconds.
func (s *Service) retryAfterSeconds() int {
	sec := s.queue.Len() / s.workers
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// decodeRequest decodes a RunRequest or SweepRequest body onto the
// service's defaults: a "gpu" or "scale" override onto a copy of the
// service's machine or scale, and a "snake" override onto core.Defaults
// (core.Config.UnmarshalJSON). An omitted field is the default and a present
// one is taken literally; normalize rejects what cannot run. A field the
// request or an override does not have is an error.
func (s *Service) decodeRequest(r *http.Request, v any) error {
	gpu, sc := s.runner.Cfg, s.runner.Scale
	switch req := v.(type) {
	case *RunRequest:
		req.GPU, req.Scale = &gpu, &sc // encoding/json fills a non-nil pointer in place
	case *SweepRequest:
		req.GPU, req.Scale = &gpu, &sc
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	// One object per body: anything but whitespace after it (a second
	// object, a stray brace) is refused, not silently dropped.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: trailing data after the JSON object")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
