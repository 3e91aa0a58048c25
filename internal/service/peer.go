package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"snake/internal/cluster"
	"snake/internal/stats"
)

// errPeerBusy rejects forwarded-in work when the reserved peer capacity is
// exhausted; the sender's transport maps the 429 to ErrSaturated and
// computes locally.
var errPeerBusy = errors.New("peer-execute capacity exhausted")

// handlePeerExecute is POST /v1/peer/execute: return the full simulation
// stats of a job forwarded by a peer. A key this node already holds (its
// record, then memory, then disk) is answered at once, with no peer slot
// and no job. A miss never enters the worker queue — it runs on the
// reserved peerSlots capacity, so it makes progress even when every worker
// is blocked forwarding work out (two nodes forwarding to each other could
// otherwise wedge with all workers waiting on each other's queues). When
// the slots are exhausted the owner answers 429 + Retry-After and the
// sender degrades to local compute. The job is marked noForward: this node
// is the key's owner, and owners never forward.
func (s *Service) handlePeerExecute(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	sp, err := s.normalize(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sp.noForward = true
	s.metrics.forwardedIn.Add(1)
	if st, key, tier := s.held(&sp); st != nil {
		writePeerResult(w, key, tier.String(), st)
		return
	}
	select {
	case s.peerSlots <- struct{}{}:
	default:
		s.metrics.peerRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests, errPeerBusy)
		return
	}
	defer func() { <-s.peerSlots }()
	j, err := s.submitPeer(sp)
	if err != nil {
		s.writeSubmitErr(w, err)
		return
	}
	// The sending peer holding the connection owns the job: its disconnect
	// (or context cancellation) cancels the work here too.
	done := j.wait()
	select {
	case <-done:
	case <-r.Context().Done():
		s.cancelJob(j)
		<-done
	}
	j.mu.Lock()
	jerr, source, status := j.err, j.source, j.status
	j.mu.Unlock()
	switch status {
	case jobDone:
		// An owner's job never forwards, so its source is the wire's
		// "memory", "disk" or "sim".
		writePeerResult(w, j.rec.key, sourceNames[source], j.rec.st.Load())
	case jobCanceled:
		writeErr(w, http.StatusServiceUnavailable, errors.New("forwarded job canceled"))
	default:
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("forwarded job failed: %v", jerr))
	}
}

// held returns the result of sp's key that this node already holds — its
// record's, else the store's — with the key and the tier that answered. It
// creates no record; a miss returns a nil result.
func (s *Service) held(sp *spec) (*stats.Sim, string, cluster.Tier) {
	s.mu.Lock()
	rec := s.records[sp.recordKey()]
	s.mu.Unlock()
	if rec != nil && rec.st.Load() != nil {
		return rec.st.Load(), rec.key, cluster.TierMemory
	}
	key := sp.key.Hash()
	st, tier := s.store.Get(s.baseCtx, key)
	return st, key, tier
}

// writePeerResult answers a forwarded request with its key's stats and
// where this node found them.
func writePeerResult(w http.ResponseWriter, key, source string, st *stats.Sim) {
	w.Header().Set(cluster.SourceHeader, source)
	w.Header().Set(cluster.KeyHeader, key)
	writeJSON(w, http.StatusOK, st)
}
