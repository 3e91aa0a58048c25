package service

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// subscribe registers a stream consumer on the sweep. The channel is
// buffered generously past the worst case (one notify per job plus replay
// slack) so notifiers never block on a slow reader.
func (sw *sweep) subscribe() (int, chan *job) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.nextSub++
	id := sw.nextSub
	ch := make(chan *job, 2*len(sw.jobIDs)+4)
	sw.subs[id] = ch
	return id, ch
}

func (sw *sweep) unsubscribe(id int) {
	sw.mu.Lock()
	delete(sw.subs, id)
	sw.mu.Unlock()
}

// notify fans one terminal job out to every subscriber. Sends are
// non-blocking: a subscriber whose buffer somehow filled loses the event
// rather than stalling job completion; its replay-on-connect already covered
// everything terminal before it subscribed.
func (sw *sweep) notify(j *job) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, ch := range sw.subs {
		select {
		case ch <- j:
		default:
		}
	}
}

// notifySweep routes a terminal job to its sweep's subscribers, if any.
func (s *Service) notifySweep(j *job) {
	if j.sweepID == "" {
		return
	}
	s.mu.Lock()
	sw := s.sweeps[j.sweepID]
	s.mu.Unlock()
	if sw != nil {
		sw.notify(j)
	}
}

// handleStreamSweep is GET /v1/sweeps/{id}/stream: chunked JSON lines, one
// RunView per cell in completion order as the cells land, closed by a
// StreamEnd summary line once every cell is terminal. Clients see results
// immediately instead of polling the roll-up with ?wait=1 semantics.
func (s *Service) handleStreamSweep(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw, ok := s.sweeps[r.PathValue("id")]
	var jobs []*job
	if ok {
		jobs = make([]*job, 0, len(sw.jobIDs))
		for _, id := range sw.jobIDs {
			jobs = append(jobs, s.jobs[id])
		}
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such sweep %q", r.PathValue("id")))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	subID, ch := sw.subscribe()
	defer sw.unsubscribe(subID)
	s.metrics.streamSubs.Add(1)
	defer s.metrics.streamSubs.Add(-1)

	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}
	var line []byte
	sent := make(map[string]bool, len(jobs))
	var end StreamEnd
	emit := func(j *job) bool {
		if sent[j.id] {
			return true
		}
		v := j.view()
		if !v.Status.Terminal() {
			return true
		}
		sent[j.id] = true
		switch v.Status {
		case StatusDone:
			end.Completed++
		case StatusFailed:
			end.Failed++
		case StatusCanceled:
			end.Canceled++
		}
		var err error
		if line, err = v.appendJSON(line[:0], false); err != nil {
			return false
		}
		line = append(line, '\n')
		_, err = w.Write(line)
		return err == nil
	}

	// Replay cells already terminal at connect time, then stream the rest
	// in completion order. Notifications that raced the replay are deduped
	// by job ID. The stream is flushed per burst, not per line: after the
	// replay, and whenever no further notification is ready, so a line
	// waits only for lines already queued behind it.
	for _, j := range jobs {
		if !emit(j) {
			return
		}
	}
	if len(sent) < len(jobs) {
		flush()
	}
	for len(sent) < len(jobs) {
		select {
		case j := <-ch:
			if !emit(j) {
				return
			}
			if len(ch) == 0 {
				flush()
			}
		case <-r.Context().Done():
			return
		}
	}
	end.Done = true
	end.Total = len(jobs)
	_ = json.NewEncoder(w).Encode(end)
	flush()
}
