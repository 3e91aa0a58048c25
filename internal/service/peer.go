package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"snake/internal/cluster"
)

// errPeerBusy rejects forwarded-in work when the reserved peer capacity is
// exhausted; the sender's transport maps the 429 to ErrSaturated and
// computes locally.
var errPeerBusy = errors.New("peer-execute capacity exhausted")

// handleCacheGet is GET /v1/cache/{key}: the local tiers (memory, then
// disk) of the content-addressed result store, full stats.Sim JSON on a
// hit. Peers call this as tier 3 of their own store; it never recurses into
// a further peer fetch, so lookups cannot loop.
func (s *Service) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	st, tier := s.store.GetLocal(key)
	if st == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no cached result for %q", key))
		return
	}
	w.Header().Set(cluster.SourceHeader, tier.String())
	w.Header().Set(cluster.KeyHeader, key)
	writeJSON(w, http.StatusOK, st)
}

// handlePeerExecute is POST /v1/peer/execute: run a job forwarded by a peer
// and return the full simulation stats. Forwarded work never enters the
// worker queue — it runs on the reserved peerSlots capacity, so it makes
// progress even when every worker is blocked forwarding work out (two
// nodes forwarding to each other could otherwise wedge with all workers
// waiting on each other's queues). When the slots are exhausted the owner
// answers 429 + Retry-After and the sender degrades to local compute. The
// job is marked noForward: this node is the key's owner, and owners never
// forward.
func (s *Service) handlePeerExecute(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := s.decodeRequest(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	select {
	case s.peerSlots <- struct{}{}:
	default:
		s.metrics.queueRejectedInc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests, errPeerBusy)
		return
	}
	defer func() { <-s.peerSlots }()
	j, err := s.submitPeer(req)
	if err != nil {
		s.writeSubmitErr(w, err)
		return
	}
	s.metrics.forwardedInInc()
	// The sending peer holding the connection owns the job: its disconnect
	// (or context cancellation) cancels the work here too.
	select {
	case <-j.done:
	case <-r.Context().Done():
		s.cancelJob(j)
		<-j.done
	}
	j.mu.Lock()
	jerr, source, status := j.err, j.source, j.status
	j.mu.Unlock()
	switch status {
	case StatusDone:
		w.Header().Set(cluster.SourceHeader, sourceForPeer(source))
		w.Header().Set(cluster.KeyHeader, j.rec.key)
		writeJSON(w, http.StatusOK, j.rec.st.Load())
	case StatusCanceled:
		writeErr(w, http.StatusServiceUnavailable, errors.New("forwarded job canceled"))
	default:
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("forwarded job failed: %v", jerr))
	}
}

// sourceForPeer collapses a job source to the wire vocabulary the transport
// documents: "memory", "disk", or "sim".
func sourceForPeer(source string) string {
	switch source {
	case "memory", "disk":
		return source
	default:
		return "sim"
	}
}
