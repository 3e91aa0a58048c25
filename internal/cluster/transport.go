package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"snake/internal/stats"
)

// Transport errors. The service layer treats every one of them as "degrade
// to local compute"; they exist so metrics and tests can tell the cases
// apart.
var (
	// ErrSelf: the key is owned by this node, so there is no peer to talk to.
	ErrSelf = errors.New("cluster: key owned by this node")
	// ErrPeerDown: the owning peer is inside its down window.
	ErrPeerDown = errors.New("cluster: owning peer is down")
	// ErrSaturated: the per-peer in-flight cap is exhausted, or the peer
	// answered 429 (its own admission control rejected the work).
	ErrSaturated = errors.New("cluster: peer saturated")
)

// cachePath and executePath are the peer-to-peer endpoints the service
// layer serves; the transport only ever talks to these.
const (
	cachePath   = "/v1/cache/"
	executePath = "/v1/peer/execute"
)

// SourceHeader carries where the responding node produced a result
// ("memory", "disk", or "sim") so the caller's metrics can distinguish a
// remote cache hit from remote compute.
const SourceHeader = "X-Snaked-Source"

// KeyHeader echoes the responding node's content address for the result so
// the caller can detect key-schema skew between nodes.
const KeyHeader = "X-Snaked-Key"

// FetchResult is the store's tier-3 lookup: ask the owning peer's local
// cache (memory + disk tiers only, no recursion) for key. It returns
// (nil, false) on self-ownership, a down or unreachable peer, or a remote
// miss — never an error; a dead peer just means the caller computes
// locally.
func (c *Cluster) FetchResult(ctx context.Context, key string) (*stats.Sim, bool) {
	owner, self := c.OwnerOf(key)
	if self {
		return nil, false
	}
	p := c.peers[owner]
	if p == nil || !p.Alive() {
		return nil, false
	}
	fctx, cancel := context.WithTimeout(ctx, c.fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, p.url+cachePath+key, nil)
	if err != nil {
		return nil, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.count(&c.fetchErrors)
		// A canceled caller is not evidence the peer is unhealthy.
		if ctx.Err() == nil {
			p.markDown(c.downFor)
		}
		return nil, false
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		c.count(&c.fetchMisses)
		return nil, false
	case resp.StatusCode != http.StatusOK:
		// 5xx (or anything else unexpected) is peer failure, not a miss:
		// latch the peer down so a consistently broken peer is not
		// re-queried on every single lookup.
		c.count(&c.fetchErrors)
		if ctx.Err() == nil {
			p.markDown(c.downFor)
		}
		return nil, false
	}
	st, err := decodeResult(resp.Body)
	if err != nil {
		c.count(&c.fetchErrors)
		return nil, false
	}
	c.count(&c.fetchHits)
	return st, true
}

// Execute forwards a job to the peer owning key and blocks until the peer
// returns the full simulation stats (served from its cache or freshly
// simulated — the returned source string says which). body is the
// service-layer JSON job description, opaque to the transport. The caller
// degrades to local compute on any error.
func (c *Cluster) Execute(ctx context.Context, key string, body []byte) (st *stats.Sim, source string, err error) {
	owner, self := c.OwnerOf(key)
	if self {
		return nil, "", ErrSelf
	}
	p := c.peers[owner]
	if p == nil || !p.Alive() {
		return nil, "", ErrPeerDown
	}
	if !p.tryAcquire() {
		c.count(&c.execSaturated)
		return nil, "", ErrSaturated
	}
	defer p.release()
	// Bound the forwarded execution independently of the job's own (possibly
	// unbounded) context: a hung owner turns into a transport error and a
	// local-compute fallback instead of pinning this worker forever.
	ectx := ctx
	if c.execTimeout > 0 {
		var cancel context.CancelFunc
		ectx, cancel = context.WithTimeout(ctx, c.execTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ectx, http.MethodPost, p.url+executePath, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		c.count(&c.execErrors)
		if ctx.Err() == nil {
			p.markDown(c.downFor)
		}
		return nil, "", err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		c.count(&c.execSaturated)
		return nil, "", ErrSaturated
	case resp.StatusCode != http.StatusOK:
		c.count(&c.execErrors)
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, "", fmt.Errorf("cluster: peer %s: HTTP %d: %s", owner, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if got := resp.Header.Get(KeyHeader); got != "" && got != key {
		c.count(&c.execErrors)
		return nil, "", fmt.Errorf("cluster: peer %s computed key %s for our %s (version skew?)", owner, got, key)
	}
	st, err = decodeResult(resp.Body)
	if err != nil {
		c.count(&c.execErrors)
		return nil, "", fmt.Errorf("cluster: peer %s: bad result body: %w", owner, err)
	}
	c.count(&c.execOK)
	source = resp.Header.Get(SourceHeader)
	if source == "" {
		source = "sim"
	}
	return st, source, nil
}

// decodeResult reads a peer's result body: exactly one JSON object of
// stats.Sim fields, nothing after it, and a run of at least one cycle. A
// peer or proxy answering 200 with anything else (null, {}, a partial object,
// trailing junk) is an error, not a hit: the caller would serve and cache it.
func decodeResult(r io.Reader) (*stats.Sim, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	st := new(stats.Sim)
	if err := dec.Decode(st); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the result")
	}
	if st.Cycles <= 0 {
		return nil, fmt.Errorf("result of %d cycles", st.Cycles)
	}
	return st, nil
}

func (c *Cluster) count(field *int64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}
