package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// testKeys returns n hex keys shaped like harness.RunKey hashes.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("cell-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

// TestOwnerStable: ownership is deterministic and independent of the order
// the member set is listed in — the property that lets every node compute
// ownership locally.
func TestOwnerStable(t *testing.T) {
	nodes := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	perms := [][]string{
		{nodes[0], nodes[1], nodes[2]},
		{nodes[2], nodes[0], nodes[1]},
		{nodes[1], nodes[2], nodes[0]},
	}
	for _, key := range testKeys(200) {
		want := Owner(key, perms[0])
		for _, p := range perms[1:] {
			if got := Owner(key, p); got != want {
				t.Fatalf("Owner(%s) order-dependent: %s vs %s", key[:8], got, want)
			}
		}
		// And repeated calls agree (pure function of inputs).
		if again := Owner(key, perms[0]); again != want {
			t.Fatalf("Owner(%s) nondeterministic: %s vs %s", key[:8], again, want)
		}
	}
}

// TestOwnerBalanced: across 2–5 simulated peers, every node owns a fair
// share of a large key population (within 2x of ideal in both directions —
// loose enough for a 64-bit hash over 2000 keys, tight enough to catch a
// broken hash that dumps everything on one node).
func TestOwnerBalanced(t *testing.T) {
	keys := testKeys(2000)
	for n := 2; n <= 5; n++ {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://node%d:8080", i)
		}
		counts := make(map[string]int)
		for _, k := range keys {
			counts[Owner(k, nodes)]++
		}
		ideal := len(keys) / n
		for _, node := range nodes {
			got := counts[node]
			if got < ideal/2 || got > ideal*2 {
				t.Errorf("%d nodes: %s owns %d keys, want within [%d, %d]",
					n, node, got, ideal/2, ideal*2)
			}
		}
	}
}

// TestOwnerBalancedPairs: a two-node cluster splits keys about evenly
// whatever the peer's address. One fixed self is paired with 2,000 peers
// whose URLs differ only in the port, the shape an httptest cluster has;
// each peer must own 40-60% of 2,000 RunKey-shaped keys, and some of the
// 4,096 counter keys transport tests search for an owned key among. Bare
// FNV-1a left 12 of these peers outside 40-60% (port 31972 owned 1.7%).
func TestOwnerBalancedPairs(t *testing.T) {
	keys := testKeys(2000)
	counters := make([]string, 4096)
	for i := range counters {
		counters[i] = fmt.Sprintf("%064x", i)
	}
	const self = "http://self.invalid"
	for port := 30000; port < 32000; port++ {
		peer := fmt.Sprintf("http://127.0.0.1:%d", port)
		nodes := []string{self, peer}
		owned := 0
		for _, k := range keys {
			if Owner(k, nodes) == peer {
				owned++
			}
		}
		if share := float64(owned) / float64(len(keys)); share < 0.4 || share > 0.6 {
			t.Errorf("%s owns %.1f%% of %d keys paired with %s, want 40-60%%",
				peer, 100*share, len(keys), self)
		}
		ownsCounter := false
		for _, k := range counters {
			if Owner(k, nodes) == peer {
				ownsCounter = true
				break
			}
		}
		if !ownsCounter {
			t.Errorf("%s owns none of %d counter keys paired with %s", peer, len(counters), self)
		}
	}
}

// TestOwnerMonotone: growing the member set only moves keys to the new
// node — the rendezvous property that makes scale-out cheap (no reshuffle
// among survivors).
func TestOwnerMonotone(t *testing.T) {
	nodes := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	grown := append([]string{"http://d:8080"}, nodes...)
	moved := 0
	for _, key := range testKeys(1000) {
		before := Owner(key, nodes)
		after := Owner(key, grown)
		if after != before {
			if after != "http://d:8080" {
				t.Fatalf("key %s moved %s → %s, not to the new node", key[:8], before, after)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("no keys moved to the new node; hash not spreading")
	}
}

func TestClusterOwnerOf(t *testing.T) {
	a := New(Options{Self: "http://a:1", Peers: []string{"http://b:1"}})
	b := New(Options{Self: "http://b:1", Peers: []string{"http://a:1/"}}) // trailing slash normalized
	sawSelf, sawPeer := false, false
	for _, key := range testKeys(64) {
		ownerA, selfA := a.OwnerOf(key)
		ownerB, selfB := b.OwnerOf(key)
		if ownerA != ownerB {
			t.Fatalf("nodes disagree on owner of %s: %s vs %s", key[:8], ownerA, ownerB)
		}
		if selfA == selfB {
			t.Fatalf("both nodes claim (or disclaim) ownership of %s", key[:8])
		}
		if selfA {
			sawSelf = true
		} else {
			sawPeer = true
		}
	}
	if !sawSelf || !sawPeer {
		t.Error("64 keys all landed on one node; hash not spreading")
	}
}
