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
//	POST   /v1/peer/execute answer or run a forwarded job, return full stats (peers only)
//	GET    /metrics        Prometheus-style text metrics
//	GET    /healthz        liveness
//
// With -peers configured, a fleet of snaked processes forms a job fabric:
// each result key has one owner (rendezvous hash over the member set), a
// local miss is forwarded to the owner, which answers from its cache or
// simulates, and a dead peer degrades to local compute — never an error.
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
	Bench string `json:"bench,omitempty"`
	// Mech names a registry mechanism; ignored when Snake is set.
	Mech string `json:"mech"`
	// Snake, when set, runs a custom Snake configuration instead of Mech.
	// Over HTTP it is core.Defaults with the fields the JSON holds.
	Snake *core.Config `json:"snake,omitempty"`
	// GPU overrides the server's default hardware configuration. Over
	// HTTP it is that default with the fields the JSON holds.
	GPU *config.GPU `json:"gpu,omitempty"`
	// Scale overrides the server's default workload scale. Over HTTP it is
	// that default with the fields the JSON holds.
	Scale *workloads.Scale `json:"scale,omitempty"`
	// Priority orders the queue: higher runs first (default 0); ties are
	// FIFO.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the simulation wall clock; 0 means no limit.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepRequest submits the cross product benches × mechs as one sweep.
type SweepRequest struct {
	Benches   []string         `json:"benches,omitempty"`
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

// RunView is the wire representation of a job.
type RunView struct {
	ID     string `json:"id"`
	Bench  string `json:"bench,omitempty"`
	Mech   string `json:"mech"`
	Key    string `json:"key"` // content address (harness.RunKey hash)
	Status Status `json:"status"`
	Cached bool   `json:"cached"`
	// Source says where the result came from: a cache tier ("memory",
	// "disk"), a forwarded execution on the owning peer ("forward:memory",
	// "forward:disk", "forward:sim"), or a local simulation ("sim"). Cached
	// is true for every source that simulated nothing.
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
	Mechanisms []string    `json:"mechanisms"`
}

// BenchInfo describes one registry benchmark.
type BenchInfo struct {
	Name     string `json:"name"`
	FullName string `json:"full_name"`
}

// spec is a normalized, validated job specification: a canonical RunKey
// (harness.RunKey.Normalize) plus how to run it. noForward marks work that
// arrived from a peer: it must be produced locally, never forwarded again
// (loop prevention).
type spec struct {
	key       harness.RunKey
	priority  int
	timeout   time.Duration
	noForward bool
}

// wireRequest reconstructs a forwardable RunRequest from the normalized
// spec. GPU and scale are always sent explicitly so the peer normalizes to
// the same content address whatever its own defaults are.
func (sp *spec) wireRequest() RunRequest {
	k := sp.key
	req := RunRequest{
		Bench:     k.Bench,
		Snake:     k.Snake,
		GPU:       &k.GPU,
		Scale:     &k.Scale,
		Priority:  sp.priority,
		TimeoutMS: int64(sp.timeout / time.Millisecond),
	}
	if k.Snake == nil {
		req.Mech = k.Mech
	}
	return req
}

// recordKey identifies a canonical RunKey by content, so a job finds its
// key's record without hashing. It holds every RunKey field, the Snake
// config by value (zero for a registry mechanism, whose mech tells it
// apart), and each is an int, string, bool or a float of a canonical Snake
// config: BWHalt and BWResume lie in [0, 1], never -0 (Normalize writes it
// as 0) or NaN. So equal values marshal to the same canonical JSON, hence
// the same hash. (Unequal values can still share a hash, as encoding/json
// writes invalid UTF-8 as U+FFFD; their records then carry one key, which
// is harmless.)
type recordKey struct {
	bench, mech string
	snake       core.Config
	gpu         config.GPU
	scale       workloads.Scale
}

// recordKey returns the spec's record key.
func (sp *spec) recordKey() recordKey {
	k := &sp.key
	rk := recordKey{bench: k.Bench, mech: k.Mech, gpu: k.GPU, scale: k.Scale}
	if k.Snake != nil {
		rk.snake = *k.Snake
	}
	return rk
}
