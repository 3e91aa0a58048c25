package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"snake/internal/cluster"
)

// wallBucketsMS are the per-benchmark simulation wall-clock histogram bucket
// upper bounds, in milliseconds.
var wallBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// metrics aggregates service counters. The counters are atomics that call
// sites add to directly; mu guards only the wall-clock histograms. Gauges
// derived from other subsystems (queue depth, cache entries) are sampled at
// render time by the server.
type metrics struct {
	submitted atomic.Int64
	running   atomic.Int64 // gauge
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	queueRejected    atomic.Int64 // submissions refused with 429 (queue full)
	peerRejected     atomic.Int64 // forwarded requests refused with 429 (no peer slot)
	forwardsOK       atomic.Int64 // jobs executed on the owning peer
	forwardFallbacks atomic.Int64 // forward attempts degraded to local compute
	forwardedIn      atomic.Int64 // well-formed requests from peers via /v1/peer/execute
	streamSubs       atomic.Int64 // gauge: open sweep-stream subscribers

	mu   sync.Mutex
	wall map[string]*histogram // per-benchmark sim wall clock
}

func newMetrics() *metrics {
	return &metrics{wall: make(map[string]*histogram)}
}

// jobFinished transitions a started job to its terminal state.
func (m *metrics) jobFinished(st Status) {
	m.running.Add(-1)
	switch st {
	case StatusDone:
		m.completed.Add(1)
	case StatusFailed:
		m.failed.Add(1)
	case StatusCanceled:
		m.canceled.Add(1)
	}
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

// hitRatio returns cache hits / lookups (0 when no lookups yet).
func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// render writes the Prometheus text exposition format. queued (jobs in the
// priority queue), jobs (jobs retained for GET /v1/runs/{id}, terminal or
// not), records (per-key result records) and traceBytes (the instruction
// bytes of the interned traces) are gauges sampled by the caller; store is
// the tiered cache's snapshot, and clu the cluster transport's (nil when
// the node runs standalone).
func (m *metrics) render(w io.Writer, queued, jobs, records int, traceBytes int64, store cluster.StoreStats, clu *cluster.Snapshot) {
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	fmt.Fprintf(w, "# TYPE snaked_jobs_submitted_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_submitted_total %d\n", m.submitted.Load())
	fmt.Fprintf(w, "# TYPE snaked_jobs_queued gauge\n")
	fmt.Fprintf(w, "snaked_jobs_queued %d\n", queued)
	fmt.Fprintf(w, "# TYPE snaked_jobs_retained gauge\n")
	fmt.Fprintf(w, "snaked_jobs_retained %d\n", jobs)
	fmt.Fprintf(w, "# TYPE snaked_result_records gauge\n")
	fmt.Fprintf(w, "snaked_result_records %d\n", records)
	fmt.Fprintf(w, "# TYPE snaked_trace_bytes gauge\n")
	fmt.Fprintf(w, "snaked_trace_bytes %d\n", traceBytes)
	fmt.Fprintf(w, "# TYPE snaked_jobs_running gauge\n")
	fmt.Fprintf(w, "snaked_jobs_running %d\n", m.running.Load())
	fmt.Fprintf(w, "# TYPE snaked_jobs_completed_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_completed_total %d\n", m.completed.Load())
	fmt.Fprintf(w, "# TYPE snaked_jobs_failed_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_failed_total %d\n", m.failed.Load())
	fmt.Fprintf(w, "# TYPE snaked_jobs_canceled_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_canceled_total %d\n", m.canceled.Load())
	fmt.Fprintf(w, "# TYPE snaked_jobs_rejected_total counter\n")
	fmt.Fprintf(w, "snaked_jobs_rejected_total %d\n", m.queueRejected.Load())
	fmt.Fprintf(w, "# HELP snaked_peer_rejected_total Forwarded requests refused with 429 for lack of a peer slot.\n")
	fmt.Fprintf(w, "# TYPE snaked_peer_rejected_total counter\n")
	fmt.Fprintf(w, "snaked_peer_rejected_total %d\n", m.peerRejected.Load())
	fmt.Fprintf(w, "# TYPE snaked_cache_hits_total counter\n")
	fmt.Fprintf(w, "snaked_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# TYPE snaked_cache_misses_total counter\n")
	fmt.Fprintf(w, "snaked_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "# TYPE snaked_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "snaked_cache_hit_ratio %.4f\n", hitRatio(hits, misses))
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
	fmt.Fprintf(w, "# TYPE snaked_cache_evictions_total counter\n")
	fmt.Fprintf(w, "snaked_cache_evictions_total %d\n", store.Evictions)
	fmt.Fprintf(w, "# TYPE snaked_cache_spills_total counter\n")
	fmt.Fprintf(w, "snaked_cache_spills_total %d\n", store.Spills)
	fmt.Fprintf(w, "# TYPE snaked_cache_disk_errors_total counter\n")
	fmt.Fprintf(w, "snaked_cache_disk_errors_total %d\n", store.DiskErrors)
	fmt.Fprintf(w, "# TYPE snaked_stream_subscribers gauge\n")
	fmt.Fprintf(w, "snaked_stream_subscribers %d\n", m.streamSubs.Load())
	if clu != nil {
		fmt.Fprintf(w, "# TYPE snaked_cluster_nodes gauge\n")
		fmt.Fprintf(w, "snaked_cluster_nodes %d\n", clu.Nodes)
		fmt.Fprintf(w, "# TYPE snaked_forwards_total counter\n")
		fmt.Fprintf(w, "snaked_forwards_total{result=\"ok\"} %d\n", m.forwardsOK.Load())
		fmt.Fprintf(w, "snaked_forwards_total{result=\"fallback\"} %d\n", m.forwardFallbacks.Load())
		fmt.Fprintf(w, "# TYPE snaked_forwarded_in_total counter\n")
		fmt.Fprintf(w, "snaked_forwarded_in_total %d\n", m.forwardedIn.Load())
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
