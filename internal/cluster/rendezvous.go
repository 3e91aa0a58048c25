// Package cluster turns independent snaked processes into a peer-aware job
// fabric. It provides the four pieces the service layer composes into a
// distributed result cache:
//
//   - rendezvous-hash ownership of result keys (Owner), so every node agrees
//     on which member is responsible for a harness.RunKey without any
//     coordination traffic;
//   - static membership with failure-aware health (Peer): a peer that errors
//     is marked down for a probe window and the caller degrades to local
//     compute — a dead peer is never an error;
//   - an HTTP transport (Execute) that forwards a job to its key's owner,
//     with per-peer in-flight caps;
//   - a tiered result store (Store): bounded in-memory LRU → disk spillover
//     (offload on eviction rather than drop).
//
// The package depends only on internal/stats; the service layer owns the
// wire format of forwarded jobs and passes it through as opaque JSON.
package cluster

import (
	"hash/fnv"
	"io"
)

// score returns the rendezvous (highest-random-weight) weight of node for
// key. FNV-1a over node⊕key keeps ownership deterministic across processes
// with no shared state beyond the member list itself. Bare FNV-1a scores
// of two node names that differ in a character or two are correlated
// across keys, so such a pair could split keys far from evenly (one peer of
// a pair owned 1.7% of them); the splitmix64 finalizer decorrelates them.
func score(node, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, node)
	h.Write([]byte{0})
	io.WriteString(h, key)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the member with the highest rendezvous score for key, with
// lexicographic tie-breaking so the result is independent of slice order.
// Every cluster member must pass the same set of node names (in any order)
// to agree on ownership. nodes must be non-empty.
func Owner(key string, nodes []string) string {
	best := nodes[0]
	bestScore := score(best, key)
	for _, n := range nodes[1:] {
		if s := score(n, key); s > bestScore || (s == bestScore && n < best) {
			best, bestScore = n, s
		}
	}
	return best
}
