package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
)

// subscribe registers a stream consumer on the sweep. The channel is
// buffered generously past the worst case (one notify per job plus replay
// slack) so notifiers never block on a slow reader.
func (sw *sweep) subscribe() chan int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ch := make(chan int, 2*sw.cells+4)
	sw.subs = append(sw.subs, ch)
	return ch
}

// unsubscribe removes a stream consumer; the last one to leave frees the
// list.
func (sw *sweep) unsubscribe(ch chan int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.subs = slices.DeleteFunc(sw.subs, func(c chan int) bool { return c == ch })
	if len(sw.subs) == 0 {
		sw.subs = nil
	}
}

// notify fans one terminal job of the sweep out to every subscriber, as its
// position among the sweep's cells; a nil sweep (a run's) has none. Sends
// are non-blocking: a subscriber whose buffer somehow filled loses the event
// rather than stalling job completion; its replay-on-connect already covered
// everything terminal before it subscribed.
func (sw *sweep) notify(j *job) {
	if sw == nil {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, ch := range sw.subs {
		select {
		case ch <- j.n - 1 - sw.first:
		default:
		}
	}
}

// handleStreamSweep is GET /v1/sweeps/{id}/stream: chunked JSON lines, one
// RunView per cell in completion order as the cells land, closed by a
// StreamEnd summary line once every cell is terminal. Clients see results
// immediately instead of polling the roll-up with ?wait=1 semantics.
func (s *Service) handleStreamSweep(w http.ResponseWriter, r *http.Request) {
	sw, jobs, ok := s.findSweep(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such sweep %q", r.PathValue("id")))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	ch := sw.subscribe()
	defer sw.unsubscribe(ch)
	s.metrics.streamSubs.Add(1)
	defer s.metrics.streamSubs.Add(-1)

	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}
	var line []byte
	sent := make([]uint64, (len(jobs)+63)/64) // a bit per cell, by position
	nsent := 0
	var end StreamEnd
	emit := func(i int) bool {
		word, bit := &sent[i/64], uint64(1)<<(i%64)
		if *word&bit != 0 {
			return true
		}
		v := jobs[i].view()
		if !v.Status.Terminal() {
			return true
		}
		*word |= bit
		nsent++
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
	// by position. The stream is flushed per burst, not per line: after the
	// replay, and whenever no further notification is ready, so a line
	// waits only for lines already queued behind it.
	for i := range jobs {
		if !emit(i) {
			return
		}
	}
	if nsent < len(jobs) {
		flush()
	}
	for nsent < len(jobs) {
		select {
		case i := <-ch:
			if !emit(i) {
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
