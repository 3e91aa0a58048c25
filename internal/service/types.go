// Package service is the snaked simulation server: an HTTP/JSON API that
// accepts simulation and sweep jobs, executes them on a bounded worker pool
// with a priority-ordered queue, memoizes results in a content-addressed
// cache keyed by harness.RunKey, and exposes metrics and health endpoints.
//
// Endpoints:
//
//	POST   /v1/runs        submit one job (?wait=1 blocks until completion)
//	GET    /v1/runs/{id}   job status and result
//	DELETE /v1/runs/{id}   cancel a queued or running job
//	POST   /v1/sweeps      submit a bench×mech grid of jobs
//	GET    /v1/sweeps/{id} sweep roll-up
//	GET    /v1/sweeps/{id}/stream completed cells as JSON lines, as they land
//	GET    /v1/benchmarks  benchmark and mechanism inventory
//	GET    /v1/cache/{key} local cache tiers lookup (peer-to-peer tier 3)
//	POST   /v1/peer/execute run a forwarded job, return full stats (peers only)
//	GET    /metrics        Prometheus-style text metrics
//	GET    /healthz        liveness
//
// With -peers configured, a fleet of snaked processes forms a job fabric:
// each result key has one owner (rendezvous hash over the member set), local
// misses consult the owner's cache and then forward the job to it, and a
// dead peer degrades to local compute — never an error.
package service

import (
	"time"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// RunRequest submits one simulation job.
type RunRequest struct {
	// Bench names a registry benchmark (GET /v1/benchmarks lists them).
	// Mutually exclusive with App.
	Bench string `json:"bench,omitempty"`
	// App names a registry application workload (a multi-kernel launch graph;
	// GET /v1/benchmarks lists them). Mutually exclusive with Bench.
	App string `json:"app,omitempty"`
	// Chain keeps prefetcher chain tables trained across kernel-launch
	// boundaries (sim.Options.ChainPersistence). Only meaningful with App; it
	// changes results and therefore participates in the content address.
	Chain bool `json:"chain,omitempty"`
	// Split is the tenant-0 SM share for apps that partition the machine
	// (0: an even halving). It shapes the app's SM masks and so participates
	// in the content address through the app digest.
	Split int `json:"split,omitempty"`
	// Mech names a registry mechanism; ignored when Snake is set.
	Mech string `json:"mech"`
	// Snake, when set, runs a custom Snake configuration instead of Mech.
	Snake *core.Config `json:"snake,omitempty"`
	// GPU overrides the server's default hardware configuration.
	GPU *config.GPU `json:"gpu,omitempty"`
	// Scale overrides the server's default workload scale.
	Scale *workloads.Scale `json:"scale,omitempty"`
	// Priority orders the queue: higher runs first (default 0); ties are
	// FIFO.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the simulation wall clock; 0 means no limit.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepRequest submits the cross product of (benches ∪ apps) × mechs as one
// sweep. Chain and Split apply to the app cells only.
type SweepRequest struct {
	Benches   []string         `json:"benches,omitempty"`
	Apps      []string         `json:"apps,omitempty"`
	Chain     bool             `json:"chain,omitempty"`
	Split     int              `json:"split,omitempty"`
	Mechs     []string         `json:"mechs"`
	Snake     *core.Config     `json:"snake,omitempty"` // replaces Mechs when set
	GPU       *config.GPU      `json:"gpu,omitempty"`
	Scale     *workloads.Scale `json:"scale,omitempty"`
	Priority  int              `json:"priority,omitempty"`
	TimeoutMS int64            `json:"timeout_ms,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Result summarizes a completed simulation.
type Result struct {
	Cycles    int64   `json:"cycles"`
	Insts     int64   `json:"insts"`
	Loads     int64   `json:"loads"`
	IPC       float64 `json:"ipc"`
	Coverage  float64 `json:"coverage"`
	Accuracy  float64 `json:"accuracy"`
	L1HitRate float64 `json:"l1_hit_rate"`
}

// summarize extracts the wire summary from full simulation stats.
func summarize(st *stats.Sim) *Result {
	return &Result{
		Cycles:    st.Cycles,
		Insts:     st.Insts,
		Loads:     st.Loads,
		IPC:       st.IPC(),
		Coverage:  st.Coverage(),
		Accuracy:  st.Accuracy(),
		L1HitRate: st.L1HitRate(),
	}
}

// RunView is the wire representation of a job. Exactly one of Bench and App
// is set, mirroring the request.
type RunView struct {
	ID     string `json:"id"`
	Bench  string `json:"bench,omitempty"`
	App    string `json:"app,omitempty"`
	Chain  bool   `json:"chain,omitempty"`
	Mech   string `json:"mech"`
	Key    string `json:"key"` // content address (harness.RunKey hash)
	Status Status `json:"status"`
	Cached bool   `json:"cached"`
	// Source says where the result came from: a cache tier ("memory",
	// "disk", "peer"), a forwarded execution on the owning peer
	// ("forward:memory", "forward:disk", "forward:sim"), or a local
	// simulation ("sim").
	Source string  `json:"source,omitempty"`
	Error  string  `json:"error,omitempty"`
	WallMS float64 `json:"wall_ms,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// SweepView is the wire representation of a sweep.
type SweepView struct {
	ID      string    `json:"id"`
	Done    bool      `json:"done"`
	Total   int       `json:"total"`
	Pending int       `json:"pending"`
	Jobs    []RunView `json:"jobs"`
}

// StreamEnd is the final line of a GET /v1/sweeps/{id}/stream response,
// after one RunView line per cell. Clients tell the two apart by the
// "stream_done" field, which RunView lines never carry.
type StreamEnd struct {
	Done      bool `json:"stream_done"`
	Total     int  `json:"total"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
	Canceled  int  `json:"canceled"`
}

// BenchmarksView is the GET /v1/benchmarks payload.
type BenchmarksView struct {
	Benchmarks []BenchInfo `json:"benchmarks"`
	Apps       []AppInfo   `json:"apps"`
	Mechanisms []string    `json:"mechanisms"`
}

// BenchInfo describes one registry benchmark.
type BenchInfo struct {
	Name     string `json:"name"`
	FullName string `json:"full_name"`
}

// AppInfo describes one registry application workload.
type AppInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// label is what a run view shows of a job's shape: its workload and
// mechanism. Every field is part of the content address, so all jobs of one
// key share one label (in their record).
type label struct {
	bench string
	app   string // application name; empty for single-kernel jobs
	chain bool   // sim.Options.ChainPersistence for app jobs
	mech  string // display name; "snake:custom" for custom configs
}

// spec is a normalized, validated job specification. noForward marks work
// that arrived from a peer: it must be produced locally, never forwarded
// again (loop prevention).
type spec struct {
	label
	appDigest string // content digest of the assembled app (normalize)
	split     int    // tenant-0 SM share for partitioned apps (0: half)
	snake     *core.Config
	gpu       config.GPU
	scale     workloads.Scale
	priority  int
	timeout   time.Duration
	noForward bool
	factory   harness.Factory
}

// workload is the display/metrics label: the benchmark name, or the app name
// marked as such.
func (l label) workload() string {
	if l.app != "" {
		return "app:" + l.app
	}
	return l.bench
}

// wireRequest reconstructs a forwardable RunRequest from the normalized
// spec. GPU and scale are always sent explicitly so the peer normalizes to
// the same content address whatever its own defaults are.
func (sp *spec) wireRequest() RunRequest {
	gpu, scale := sp.gpu, sp.scale
	req := RunRequest{
		Bench:     sp.bench,
		App:       sp.app,
		Chain:     sp.chain,
		Split:     sp.split,
		GPU:       &gpu,
		Scale:     &scale,
		Priority:  sp.priority,
		TimeoutMS: int64(sp.timeout / time.Millisecond),
	}
	if sp.snake != nil {
		req.Snake = sp.snake
	} else {
		req.Mech = sp.mech
	}
	return req
}

// recordKey identifies a RunKey by content, so a job finds its key's record
// without hashing. It holds every RunKey field but the Snake config, and all
// of them are ints, strings and bools: equal values marshal to the same
// canonical JSON, hence the same hash. A custom Snake config has float64
// fields, where -0 and +0 compare equal yet marshal (and hash) apart, so a
// custom cell is hashed every time and its hash stands in for the config.
// (Unequal values can still share a hash, as encoding/json writes invalid
// UTF-8 as U+FFFD; their records then carry one key, which is harmless.)
type recordKey struct {
	label
	appDigest string
	gpu       config.GPU
	scale     workloads.Scale
	hash      string // the RunKey hash of a custom Snake cell; "" otherwise
}

// recordKey returns the spec's record key; it hashes only a custom Snake
// cell.
func (sp *spec) recordKey() recordKey {
	rk := recordKey{label: sp.label, appDigest: sp.appDigest, gpu: sp.gpu, scale: sp.scale}
	if sp.snake != nil {
		rk.hash = sp.key()
	}
	return rk
}

// key returns the job's content address. App jobs carry the app name, its
// content digest (covering kernels, masks, tenants, and dependency edges —
// so one app name assembled for different machines keys apart) and the
// chain-persistence policy; all three are omitempty-zero for kernel jobs, so
// existing kernel keys are unchanged.
func (sp *spec) key() string {
	return harness.RunKey{
		Bench:     sp.bench,
		Mech:      sp.mech,
		Snake:     sp.snake,
		GPU:       sp.gpu,
		Scale:     sp.scale,
		App:       sp.app,
		AppDigest: sp.appDigest,
		Chain:     sp.chain,
	}.Hash()
}
