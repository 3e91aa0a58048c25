package cluster

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options configures a Cluster.
type Options struct {
	// Self is this node's advertised base URL (e.g. "http://hostA:8080").
	// It must appear in every other member's Peers list under the same
	// spelling: node names are compared as strings by the rendezvous hash.
	Self string
	// Peers are the other members' advertised base URLs.
	Peers []string
	// PeerInflight caps concurrently forwarded jobs per peer (default 4).
	PeerInflight int
	// DownFor is how long a peer stays out of rotation after a transport
	// error before the next request probes it again (default 10s).
	DownFor time.Duration
	// ExecTimeout bounds one forwarded execution (default 2m). A peer that
	// cannot answer within it is treated like a transport error: the caller
	// degrades to local compute and the peer is latched down for DownFor, so
	// a hung or wedged owner can never pin the sender's workers
	// indefinitely. <0 disables the bound (the caller's context still
	// applies).
	ExecTimeout time.Duration
}

// Cluster is the static membership view plus the transport counters. All
// methods are safe for concurrent use.
type Cluster struct {
	self        string
	nodes       []string // self + peers, sorted (canonical member set)
	peers       map[string]*Peer
	downFor     time.Duration
	execTimeout time.Duration
	// client has no global timeout; per-call contexts bound each request.
	client *http.Client

	mu            sync.Mutex
	execOK        int64
	execErrors    int64
	execSaturated int64
}

// New builds the membership view. The node set is {Self} ∪ Peers; duplicate
// and empty entries are dropped.
func New(opt Options) *Cluster {
	if opt.PeerInflight <= 0 {
		opt.PeerInflight = 4
	}
	if opt.DownFor <= 0 {
		opt.DownFor = 10 * time.Second
	}
	if opt.ExecTimeout == 0 {
		opt.ExecTimeout = 2 * time.Minute
	}
	c := &Cluster{
		self:        strings.TrimRight(opt.Self, "/"),
		peers:       make(map[string]*Peer),
		downFor:     opt.DownFor,
		execTimeout: opt.ExecTimeout,
		client:      &http.Client{},
	}
	seen := map[string]bool{c.self: true}
	c.nodes = append(c.nodes, c.self)
	for _, p := range opt.Peers {
		p = strings.TrimRight(p, "/")
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		c.nodes = append(c.nodes, p)
		c.peers[p] = newPeer(p, opt.PeerInflight)
	}
	sort.Strings(c.nodes)
	return c
}

// Nodes returns the canonical member set (self included), sorted.
func (c *Cluster) Nodes() []string {
	out := make([]string, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// OwnerOf returns the member responsible for key and whether it is this
// node.
func (c *Cluster) OwnerOf(key string) (node string, self bool) {
	node = Owner(key, c.nodes)
	return node, node == c.self
}

// Snapshot is a consistent copy of the transport counters for metrics.
type Snapshot struct {
	Nodes                             int
	ExecOK, ExecErrors, ExecSaturated int64
	Peers                             []PeerStatus
}

// Snap returns the current transport counters and per-peer health.
func (c *Cluster) Snap() Snapshot {
	c.mu.Lock()
	s := Snapshot{
		Nodes:  len(c.nodes),
		ExecOK: c.execOK, ExecErrors: c.execErrors, ExecSaturated: c.execSaturated,
	}
	c.mu.Unlock()
	urls := make([]string, 0, len(c.peers))
	for u := range c.peers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		s.Peers = append(s.Peers, c.peers[u].status())
	}
	return s
}
