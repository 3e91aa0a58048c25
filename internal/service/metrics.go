package service

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"snake/internal/cluster"
)

// wallBucketsMS are the per-benchmark simulation wall-clock histogram bucket
// upper bounds, in milliseconds.
var wallBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// metrics aggregates service counters. All methods are safe for concurrent
// use; gauges derived from other subsystems (queue depth, cache entries) are
// sampled at render time by the server.
type metrics struct {
	mu sync.Mutex

	submitted int64
	running   int64
	completed int64
	failed    int64
	canceled  int64

	cacheHits   int64
	cacheMisses int64

	queueRejected    int64 // submissions refused with 429 (queue full)
	forwardsOK       int64 // jobs executed on the owning peer
	forwardFallbacks int64 // forward attempts degraded to local compute
	forwardedIn      int64 // jobs received from peers via /v1/peer/execute
	streamSubs       int64 // gauge: open sweep-stream subscribers

	wall map[string]*histogram // per-benchmark sim wall clock
}

func newMetrics() *metrics {
	return &metrics{wall: make(map[string]*histogram)}
}

func (m *metrics) jobSubmitted() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

func (m *metrics) jobStarted() {
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
}

// jobFinished transitions a started job to its terminal state.
func (m *metrics) jobFinished(st Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	switch st {
	case StatusDone:
		m.completed++
	case StatusFailed:
		m.failed++
	case StatusCanceled:
		m.canceled++
	}
}

// jobDroppedQueued counts a job canceled before it ever started.
func (m *metrics) jobDroppedQueued() {
	m.mu.Lock()
	m.canceled++
	m.mu.Unlock()
}

func (m *metrics) cacheHit() {
	m.mu.Lock()
	m.cacheHits++
	m.mu.Unlock()
}

func (m *metrics) cacheMiss() {
	m.mu.Lock()
	m.cacheMisses++
	m.mu.Unlock()
}

func (m *metrics) queueRejectedInc() {
	m.mu.Lock()
	m.queueRejected++
	m.mu.Unlock()
}

func (m *metrics) forwardOK() {
	m.mu.Lock()
	m.forwardsOK++
	m.mu.Unlock()
}

func (m *metrics) forwardFallback() {
	m.mu.Lock()
	m.forwardFallbacks++
	m.mu.Unlock()
}

func (m *metrics) forwardedInInc() {
	m.mu.Lock()
	m.forwardedIn++
	m.mu.Unlock()
}

func (m *metrics) streamSubscribed() {
	m.mu.Lock()
	m.streamSubs++
	m.mu.Unlock()
}

func (m *metrics) streamUnsubscribed() {
	m.mu.Lock()
	m.streamSubs--
	m.mu.Unlock()
}

// observeWall records one simulation's wall clock for its benchmark.
func (m *metrics) observeWall(bench string, ms float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.wall[bench]
	if h == nil {
		h = newHistogram(wallBucketsMS)
		m.wall[bench] = h
	}
	h.observe(ms)
}

// snapshot is a consistent copy of the counters for rendering and tests.
type snapshot struct {
	Submitted, Running, Completed, Failed, Canceled int64
	CacheHits, CacheMisses                          int64
	QueueRejected                                   int64
	ForwardsOK, ForwardFallbacks, ForwardedIn       int64
	StreamSubs                                      int64
}

func (m *metrics) snap() snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return snapshot{
		Submitted: m.submitted, Running: m.running, Completed: m.completed,
		Failed: m.failed, Canceled: m.canceled,
		CacheHits: m.cacheHits, CacheMisses: m.cacheMisses,
		QueueRejected: m.queueRejected,
		ForwardsOK:    m.forwardsOK, ForwardFallbacks: m.forwardFallbacks,
		ForwardedIn: m.forwardedIn, StreamSubs: m.streamSubs,
	}
}

// hitRatio returns cache hits / lookups (0 when no lookups yet).
func (s snapshot) hitRatio() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// render writes the Prometheus text exposition format. queued (jobs in the
// priority queue), jobs (jobs retained for GET /v1/runs/{id}, terminal or
// not), records (per-key result records) and traceBytes (the instruction
// bytes of the interned traces) are gauges sampled by the caller; store is
// the tiered cache's snapshot, and clu the cluster transport's (nil when
// the node runs standalone).
func (m *metrics) render(w io.Writer, queued, jobs, records int, traceBytes int64, store cluster.StoreStats, clu *cluster.Snapshot) {
	s := m.snap()
	fmt.Fprintf(w, "# TYPE snaked_jobs_submitted_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_submitted_total %d\n", s.Submitted)
	fmt.Fprintf(w, "# TYPE snaked_jobs_queued gauge\n")
	fmt.Fprintf(w, "snaked_jobs_queued %d\n", queued)
	fmt.Fprintf(w, "# TYPE snaked_jobs_retained gauge\n")
	fmt.Fprintf(w, "snaked_jobs_retained %d\n", jobs)
	fmt.Fprintf(w, "# TYPE snaked_result_records gauge\n")
	fmt.Fprintf(w, "snaked_result_records %d\n", records)
	fmt.Fprintf(w, "# TYPE snaked_trace_bytes gauge\n")
	fmt.Fprintf(w, "snaked_trace_bytes %d\n", traceBytes)
	fmt.Fprintf(w, "# TYPE snaked_jobs_running gauge\n")
	fmt.Fprintf(w, "snaked_jobs_running %d\n", s.Running)
	fmt.Fprintf(w, "# TYPE snaked_jobs_completed_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_completed_total %d\n", s.Completed)
	fmt.Fprintf(w, "# TYPE snaked_jobs_failed_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_failed_total %d\n", s.Failed)
	fmt.Fprintf(w, "# TYPE snaked_jobs_canceled_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_canceled_total %d\n", s.Canceled)
	fmt.Fprintf(w, "# TYPE snaked_jobs_rejected_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_rejected_total %d\n", s.QueueRejected)
	fmt.Fprintf(w, "# TYPE snaked_cache_hits_total counter\n")
	fmt.Fprintf(w, "snaked_cache_hits_total %d\n", s.CacheHits)
	fmt.Fprintf(w, "# TYPE snaked_cache_misses_total counter\n")
	fmt.Fprintf(w, "snaked_cache_misses_total %d\n", s.CacheMisses)
	fmt.Fprintf(w, "# TYPE snaked_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "snaked_cache_hit_ratio %.4f\n", s.hitRatio())
	fmt.Fprintf(w, "# TYPE snaked_cache_entries gauge\n")
	fmt.Fprintf(w, "snaked_cache_entries %d\n", store.Entries)
	fmt.Fprintf(w, "# TYPE snaked_cache_tier_entries gauge\n")
	fmt.Fprintf(w, "snaked_cache_tier_entries{tier=\"memory\"} %d\n", store.MemEntries)
	fmt.Fprintf(w, "snaked_cache_tier_entries{tier=\"disk\"} %d\n", store.DiskEntries)
	fmt.Fprintf(w, "# TYPE snaked_cache_tier_bytes gauge\n")
	fmt.Fprintf(w, "snaked_cache_tier_bytes{tier=\"memory\"} %d\n", store.MemBytes)
	fmt.Fprintf(w, "snaked_cache_tier_bytes{tier=\"disk\"} %d\n", store.DiskBytes)
	fmt.Fprintf(w, "# TYPE snaked_cache_tier_hits_total counter\n")
	fmt.Fprintf(w, "snaked_cache_tier_hits_total{tier=\"memory\"} %d\n", store.MemHits)
	fmt.Fprintf(w, "snaked_cache_tier_hits_total{tier=\"disk\"} %d\n", store.DiskHits)
	fmt.Fprintf(w, "snaked_cache_tier_hits_total{tier=\"peer\"} %d\n", store.PeerHits)
	fmt.Fprintf(w, "# TYPE snaked_cache_evictions_total counter\n")
	fmt.Fprintf(w, "snaked_cache_evictions_total %d\n", store.Evictions)
	fmt.Fprintf(w, "# TYPE snaked_cache_spills_total counter\n")
	fmt.Fprintf(w, "snaked_cache_spills_total %d\n", store.Spills)
	fmt.Fprintf(w, "# TYPE snaked_cache_disk_errors_total counter\n")
	fmt.Fprintf(w, "snaked_cache_disk_errors_total %d\n", store.DiskErrors)
	fmt.Fprintf(w, "# TYPE snaked_stream_subscribers gauge\n")
	fmt.Fprintf(w, "snaked_stream_subscribers %d\n", s.StreamSubs)
	if clu != nil {
		fmt.Fprintf(w, "# TYPE snaked_cluster_nodes gauge\n")
		fmt.Fprintf(w, "snaked_cluster_nodes %d\n", clu.Nodes)
		fmt.Fprintf(w, "# TYPE snaked_peer_fetch_total counter\n")
		fmt.Fprintf(w, "snaked_peer_fetch_total{result=\"hit\"} %d\n", clu.FetchHits)
		fmt.Fprintf(w, "snaked_peer_fetch_total{result=\"miss\"} %d\n", clu.FetchMisses)
		fmt.Fprintf(w, "snaked_peer_fetch_total{result=\"error\"} %d\n", clu.FetchErrors)
		fmt.Fprintf(w, "# TYPE snaked_forwards_total counter\n")
		fmt.Fprintf(w, "snaked_forwards_total{result=\"ok\"} %d\n", s.ForwardsOK)
		fmt.Fprintf(w, "snaked_forwards_total{result=\"fallback\"} %d\n", s.ForwardFallbacks)
		fmt.Fprintf(w, "# TYPE snaked_forwarded_in_total counter\n")
		fmt.Fprintf(w, "snaked_forwarded_in_total %d\n", s.ForwardedIn)
		fmt.Fprintf(w, "# TYPE snaked_peer_saturated_total counter\n")
		fmt.Fprintf(w, "snaked_peer_saturated_total %d\n", clu.ExecSaturated)
		fmt.Fprintf(w, "# TYPE snaked_peer_up gauge\n")
		for _, p := range clu.Peers {
			up := 0
			if p.Up {
				up = 1
			}
			fmt.Fprintf(w, "snaked_peer_up{peer=%q} %d\n", p.URL, up)
		}
	}

	m.mu.Lock()
	benches := make([]string, 0, len(m.wall))
	for b := range m.wall {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	fmt.Fprintf(w, "# TYPE snaked_sim_wall_ms histogram\n")
	for _, b := range benches {
		m.wall[b].render(w, "snaked_sim_wall_ms", fmt.Sprintf("bench=%q", b))
	}
	m.mu.Unlock()
}

// histogram is a fixed-bucket cumulative histogram (Prometheus semantics).
type histogram struct {
	bounds []float64
	counts []int64 // per-bucket (non-cumulative), +1 slot for +Inf
	sum    float64
	total  int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

func (h *histogram) render(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, b, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.total)
	fmt.Fprintf(w, "%s_sum{%s} %.3f\n", name, labels, h.sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total)
}
