package cluster

import (
	"sync"
	"time"
)

// Peer is one remote cluster member: its advertised base URL, a bounded
// in-flight budget for forwarded work, and a health latch. Health is
// failure-driven: a transport error marks the peer down for a probe window,
// during which callers skip it and degrade to local compute; after the
// window the next request probes it again.
type Peer struct {
	url      string
	inflight chan struct{}

	mu        sync.Mutex
	downUntil time.Time
}

func newPeer(url string, maxInflight int) *Peer {
	if maxInflight < 1 {
		maxInflight = 1
	}
	return &Peer{url: url, inflight: make(chan struct{}, maxInflight)}
}

// Alive reports whether the peer is currently considered reachable.
func (p *Peer) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !time.Now().Before(p.downUntil)
}

// markDown takes the peer out of rotation for d.
func (p *Peer) markDown(d time.Duration) {
	p.mu.Lock()
	p.downUntil = time.Now().Add(d)
	p.mu.Unlock()
}

// tryAcquire claims one in-flight slot without blocking; forwarded work that
// cannot get a slot runs locally instead of queueing behind the peer.
func (p *Peer) tryAcquire() bool {
	select {
	case p.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *Peer) release() { <-p.inflight }

// PeerStatus is a metrics snapshot of one peer.
type PeerStatus struct {
	URL string
	Up  bool
}

func (p *Peer) status() PeerStatus {
	return PeerStatus{URL: p.url, Up: p.Alive()}
}
