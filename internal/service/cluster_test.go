package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snake/internal/cluster"
	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// TestQueueFull429: past the bounded depth, submissions are rejected with
// 429 and a Retry-After header, and the rejection is counted.
func TestQueueFull429(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: 1, GPU: &gpu, Scale: &scale, QueueMax: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	// Occupy the single worker with a long-running job, then fill the queue.
	resp, body := postJSON(t, ts.URL+"/v1/runs", RunRequest{
		Bench: "lps", Mech: "baseline", Scale: &bigScale, Priority: 100,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long job: %d %s", resp.StatusCode, body)
	}
	var long RunView
	if err := json.Unmarshal(body, &long); err != nil {
		t.Fatal(err)
	}
	waitRun(t, ts.URL, long.ID, func(v RunView) bool { return v.Status == StatusRunning }, "running")

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/runs", RunRequest{Bench: "cp", Mech: "baseline", Priority: i})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/runs", RunRequest{Bench: "mum", Mech: "baseline"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("429 body = %s", body)
	}

	// A rejected sweep rolls back the cells it managed to enqueue.
	resp, _ = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Benches: []string{"cp", "lps", "mum"}, Mechs: []string{"baseline", "intra"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth sweep: %d, want 429", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if got := metricValue(t, string(mbody), "snaked_jobs_rejected_total"); got < 2 {
		t.Errorf("rejected = %v, want ≥ 2", got)
	}

	// Unblock the drain: cancel the long victim.
	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+long.ID, nil)
	if cresp, err := http.DefaultClient.Do(creq); err == nil {
		cresp.Body.Close()
	}
}

// TestSweepRollbackFreesQueueDepth: a sweep rejected by admission control
// removes its rolled-back cells from the priority heap immediately, so the
// rejection does not transiently inflate queue depth and 429 subsequent
// submissions that would otherwise fit.
func TestSweepRollbackFreesQueueDepth(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: 1, GPU: &gpu, Scale: &scale, QueueMax: 3})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	// Pin the single worker, then leave exactly one free queue slot.
	resp, body := postJSON(t, ts.URL+"/v1/runs", RunRequest{
		Bench: "lps", Mech: "baseline", Scale: &bigScale, Priority: 100,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long job: %d %s", resp.StatusCode, body)
	}
	var long RunView
	if err := json.Unmarshal(body, &long); err != nil {
		t.Fatal(err)
	}
	waitRun(t, ts.URL, long.ID, func(v RunView) bool { return v.Status == StatusRunning }, "running")
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/runs", RunRequest{Bench: "cp", Mech: "baseline"}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: %d %s", i, resp.StatusCode, body)
		}
	}

	// A two-cell sweep admits its first cell (depth 3) then hits the bound;
	// the rollback must give the slot back.
	resp, _ = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Benches: []string{"mum", "hotspot"}, Mechs: []string{"baseline"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth sweep: %d, want 429", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/runs", RunRequest{Bench: "nw", Mech: "baseline"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-rollback submit: %d %s, want 202 (rolled-back cells still hold queue slots)", resp.StatusCode, body)
	}

	// Unblock the drain.
	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+long.ID, nil)
	if cresp, err := http.DefaultClient.Do(creq); err == nil {
		cresp.Body.Close()
	}
}

// TestRejectedSweepLeavesNoJobs: a sweep that admission control rejects
// partway keeps none of the cells it had admitted. No client learns their
// IDs, so they must not stay in the job table or in snaked_jobs_retained.
func TestRejectedSweepLeavesNoJobs(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: 1, GPU: &gpu, Scale: &scale, QueueMax: 3})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer shutdown(t, svc)

	// Pin the single worker so the sweep's cells stay queued.
	resp, body := postJSON(t, ts.URL+"/v1/runs", RunRequest{
		Bench: "lps", Mech: "baseline", Scale: &bigScale, Priority: 100,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long job: %d %s", resp.StatusCode, body)
	}
	var long RunView
	if err := json.Unmarshal(body, &long); err != nil {
		t.Fatal(err)
	}
	defer func() {
		creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+long.ID, nil)
		if cresp, err := http.DefaultClient.Do(creq); err == nil {
			cresp.Body.Close()
		}
	}()
	waitRun(t, ts.URL, long.ID, func(v RunView) bool { return v.Status == StatusRunning }, "running")

	retained := func() (int, float64) {
		svc.mu.Lock()
		n := len(svc.jobs)
		svc.mu.Unlock()
		return n, metricValue(t, scrapeMetrics(t, ts.URL), "snaked_jobs_retained")
	}
	jobs0, metric0 := retained()
	// Four cells: three fill the queue, the fourth is rejected.
	resp, body = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Benches: []string{"cp", "mum"}, Mechs: []string{"baseline", "intra"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth sweep: %d %s, want 429", resp.StatusCode, body)
	}
	if jobs, metric := retained(); jobs != jobs0 || metric != metric0 {
		t.Errorf("after a rejected sweep: %d jobs, snaked_jobs_retained %v; want %d and %v",
			jobs, metric, jobs0, metric0)
	}
}

// twoNodes boots two in-process snaked services joined into one cluster
// over real listeners, so forwarding exercises the actual HTTP transport.
func twoNodes(t *testing.T, optA, optB Options) (a, b *Service, urlA, urlB string, stop func()) {
	t.Helper()
	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA = "http://" + lA.Addr().String()
	urlB = "http://" + lB.Addr().String()

	optA.Self, optA.Peers = urlA, []string{urlB}
	optB.Self, optB.Peers = urlB, []string{urlA}
	a, b = New(optA), New(optB)
	srvA := &http.Server{Handler: a.Handler()}
	srvB := &http.Server{Handler: b.Handler()}
	go srvA.Serve(lA)
	go srvB.Serve(lB)
	return a, b, urlA, urlB, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srvA.Close()
		srvB.Close()
		_ = a.Shutdown(ctx)
		_ = b.Shutdown(ctx)
	}
}

// cellOwnedBy finds a (bench, mech) cell whose RunKey the given node owns.
func cellOwnedBy(t *testing.T, owner string, nodes []string, gpu config.GPU, scale workloads.Scale, exclude map[string]bool) RunRequest {
	t.Helper()
	for _, bench := range workloads.Names() {
		for _, mech := range []string{"baseline", "intra", "inter", "snake"} {
			cell := bench + "/" + mech
			if exclude[cell] {
				continue
			}
			key := harness.RunKey{Bench: bench, Mech: mech, GPU: gpu, Scale: scale}.Hash()
			if cluster.Owner(key, nodes) == owner {
				exclude[cell] = true
				return RunRequest{Bench: bench, Mech: mech}
			}
		}
	}
	t.Fatal("no cell owned by node; rendezvous hash degenerate")
	return RunRequest{}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// labeledMetric scrapes one labeled metric sample value.
func labeledMetric(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, sample+" "), "%f", &v)
			return v
		}
	}
	t.Fatalf("metric sample %s not found in:\n%s", sample, body)
	return 0
}

// TestTwoNodeCluster is the acceptance scenario: a cell simulated on node A
// is served to node B from A's record through the forward, a cell B does
// not own is forwarded to its owner A (exactly-once production), and a dead
// peer degrades to local compute without failing any job.
func TestTwoNodeCluster(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	opt := Options{Workers: 2, GPU: &gpu, Scale: &scale, PeerDownFor: 200 * time.Millisecond}
	a, _, urlA, urlB, stop := twoNodes(t, opt, opt)
	defer stop()
	nodes := []string{urlA, urlB}
	used := make(map[string]bool)

	post := func(base string, req RunRequest) RunView {
		t.Helper()
		resp, body := postJSON(t, base+"/v1/runs?wait=1", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run on %s: %d %s", base, resp.StatusCode, body)
		}
		var v RunView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusDone {
			t.Fatalf("run on %s: status %s (%s)", base, v.Status, v.Error)
		}
		return v
	}

	// 1. Simulate a cell on its owner A, then ask B for the same cell: B
	// must forward it and A answer from its record, not re-simulate.
	cell := cellOwnedBy(t, urlA, nodes, gpu, scale, used)
	onA := post(urlA, cell)
	if onA.Source != "sim" {
		t.Fatalf("first run source = %q, want sim", onA.Source)
	}
	in0 := metricValue(t, scrapeMetrics(t, urlA), "snaked_forwarded_in_total")
	onB := post(urlB, cell)
	if !onB.Cached || onB.Source != "forward:memory" {
		t.Fatalf("node B: cached=%v source=%q, want a cached forward:memory", onB.Cached, onB.Source)
	}
	if onB.Key != onA.Key || *onB.Result != *onA.Result {
		t.Fatalf("cross-node result mismatch:\nA %+v\nB %+v", onA, onB)
	}
	if in := metricValue(t, scrapeMetrics(t, urlA), "snaked_forwarded_in_total"); in != in0+1 {
		t.Errorf("node A forwarded_in went %v → %v, want one more", in0, in)
	}

	// 2. Submit a cell owned by A to node B: B forwards it to A rather than
	// simulating a key it does not own.
	cell2 := cellOwnedBy(t, urlA, nodes, gpu, scale, used)
	fwd := post(urlB, cell2)
	if !strings.HasPrefix(fwd.Source, "forward:") {
		t.Fatalf("non-owned cell source = %q, want forward:*", fwd.Source)
	}
	mA := scrapeMetrics(t, urlA)
	if got := metricValue(t, mA, "snaked_forwarded_in_total"); got < 1 {
		t.Errorf("node A forwarded_in = %v, want ≥ 1", got)
	}
	if got := labeledMetric(t, scrapeMetrics(t, urlB), `snaked_forwards_total{result="ok"}`); got < 1 {
		t.Errorf("node B forwards ok = %v, want ≥ 1", got)
	}
	// Exactly-once: A simulated it, so A's cache holds it and the same cell
	// resubmitted anywhere is a cache hit, not a new simulation.
	again := post(urlB, cell2)
	if !again.Cached {
		t.Errorf("resubmitted forwarded cell not cached: %+v", again)
	}

	// 3. Failure semantics: drain A so it refuses forwarded work; a cell
	// owned by A must degrade to local compute on B — done, via simulation,
	// no error surfaced to the caller.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("drain A: %v", err)
	}
	cell3 := cellOwnedBy(t, urlA, nodes, gpu, scale, used)
	local := post(urlB, cell3)
	if local.Source != "sim" {
		t.Errorf("with owner dead, source = %q, want local sim", local.Source)
	}
	if got := labeledMetric(t, scrapeMetrics(t, urlB), `snaked_forwards_total{result="fallback"}`); got < 1 {
		t.Errorf("node B forward fallbacks = %v, want ≥ 1", got)
	}
}

// TestCrossForwardNoDeadlock: with workers ≤ peer-inflight, concurrent load
// on two nodes whose keys are cross-owned once wedged both pools — each
// node's only worker blocked forwarding out while the forwarded-in job it
// was waiting on queued behind that same worker. Forwarded-in work now runs
// on reserved capacity, so the cross-traffic must drain.
func TestCrossForwardNoDeadlock(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	opt := Options{Workers: 1, GPU: &gpu, Scale: &scale, PeerInflight: 4}
	_, _, urlA, urlB, stop := twoNodes(t, opt, opt)
	defer stop()
	nodes := []string{urlA, urlB}
	used := make(map[string]bool)

	// Cells owned by the *other* node, submitted to both sides at once, so
	// both single workers block forwarding out simultaneously.
	type sub struct {
		base string
		req  RunRequest
	}
	var subs []sub
	for i := 0; i < 2; i++ {
		subs = append(subs, sub{urlA, cellOwnedBy(t, urlB, nodes, gpu, scale, used)})
		subs = append(subs, sub{urlB, cellOwnedBy(t, urlA, nodes, gpu, scale, used)})
	}
	results := make(chan string, len(subs))
	for _, sb := range subs {
		go func(sb sub) {
			b, _ := json.Marshal(sb.req)
			resp, err := http.Post(sb.base+"/v1/runs?wait=1", "application/json", strings.NewReader(string(b)))
			if err != nil {
				results <- fmt.Sprintf("%s/%s: %v", sb.req.Bench, sb.req.Mech, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var v RunView
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &v) != nil || v.Status != StatusDone {
				results <- fmt.Sprintf("%s/%s: HTTP %d %s", sb.req.Bench, sb.req.Mech, resp.StatusCode, body)
				return
			}
			results <- ""
		}(sb)
	}
	deadline := time.After(90 * time.Second)
	for i := 0; i < len(subs); i++ {
		select {
		case msg := <-results:
			if msg != "" {
				t.Errorf("cross-forwarded cell failed: %s", msg)
			}
		case <-deadline:
			t.Fatalf("cross-owned load wedged: only %d/%d cells finished", i, len(subs))
		}
	}
}

// TestSweepStream: the chunked-JSON stream delivers one line per cell as
// cells finish, then a summary line, without the client ever polling.
func TestSweepStream(t *testing.T) {
	svc := tinyService(4)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	resp, body := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Benches: []string{"cp", "lps", "hotspot"}, Mechs: []string{"baseline", "snake"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit sweep: %d %s", resp.StatusCode, body)
	}
	var sw SweepView
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}

	sresp, err := http.Get(ts.URL + "/v1/sweeps/" + sw.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	var cells []RunView
	var end StreamEnd
	gotEnd := false
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %s: %v", line, err)
		}
		if probe.ID != "" {
			var v RunView
			if err := json.Unmarshal(line, &v); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, v)
			continue
		}
		if err := json.Unmarshal(line, &end); err != nil {
			t.Fatal(err)
		}
		gotEnd = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cells) != sw.Total {
		t.Fatalf("streamed %d cells, want %d", len(cells), sw.Total)
	}
	if !gotEnd || !end.Done || end.Total != sw.Total || end.Completed != sw.Total {
		t.Errorf("stream end = %+v, want done with %d completed", end, sw.Total)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if c.Status != StatusDone || c.Result == nil || c.Result.IPC <= 0 {
			t.Errorf("streamed cell %s: %s result=%v", c.ID, c.Status, c.Result)
		}
		if seen[c.ID] {
			t.Errorf("cell %s streamed twice", c.ID)
		}
		seen[c.ID] = true
	}

	// Re-streaming a finished sweep replays every cell immediately.
	sresp2, err := http.Get(ts.URL + "/v1/sweeps/" + sw.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := io.ReadAll(sresp2.Body)
	sresp2.Body.Close()
	if n := strings.Count(string(replay), "\n"); n != sw.Total+1 {
		t.Errorf("replay lines = %d, want %d cells + 1 summary", n, sw.Total)
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "snaked_stream_subscribers"); got != 0 {
		t.Errorf("stream subscribers after close = %v, want 0", got)
	}
}

// TestSweepStreamFlushesPerBurst: the stream is flushed per burst, not
// only at its end, so a cell served from the cache reaches the client while
// another cell of the sweep is still simulating.
func TestSweepStreamFlushesPerBurst(t *testing.T) {
	svc := tinyService(2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer shutdown(t, svc)

	// At bigScale, cp/baseline is in the cache and lps/baseline simulates
	// for seconds.
	sp, err := svc.normalize(RunRequest{Bench: "cp", Mech: "baseline", Scale: &bigScale})
	if err != nil {
		t.Fatal(err)
	}
	svc.store.Put(sp.key.Hash(), &stats.Sim{Cycles: 1000, Insts: 2000})
	resp, body := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Benches: []string{"lps", "cp"}, Mechs: []string{"baseline"}, Scale: &bigScale,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit sweep: %d %s", resp.StatusCode, body)
	}
	var sw SweepView
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	slow := sw.Jobs[0].ID
	defer func() {
		creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+slow, nil)
		if cresp, err := http.DefaultClient.Do(creq); err == nil {
			cresp.Body.Close()
		}
	}()

	sresp, err := http.Get(ts.URL + "/v1/sweeps/" + sw.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	first := make(chan []byte, 1)
	go func() {
		sc := bufio.NewScanner(sresp.Body)
		if sc.Scan() {
			first <- append([]byte(nil), sc.Bytes()...)
		}
		close(first)
	}()
	select {
	case line := <-first:
		var v RunView
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("bad first line %q: %v", line, err)
		}
		if v.Bench != "cp" || v.Source != "memory" {
			t.Errorf("first line is %s from %q, want the cached cp cell", v.Bench, v.Source)
		}
		if st := getRun(t, ts.URL, slow).Status; st.Terminal() {
			t.Errorf("the slow cell was %s before the cached cell's line arrived", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no stream line within 30 s while the slow cell runs")
	}
}

// TestJunkPeerResultFallsBack: an owning peer that answers 200 with a body
// that is no result (here {}) on the execute endpoint costs a local
// simulation, never a zero result served and cached.
func TestJunkPeerResultFallsBack(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{}`)
	}))
	defer peer.Close()
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	self := "http://self.invalid"
	svc := New(Options{Workers: 1, GPU: &gpu, Scale: &scale, Self: self, Peers: []string{peer.URL}})
	defer svc.Shutdown(t.Context())

	req := cellOwnedBy(t, peer.URL, []string{self, peer.URL}, gpu, scale, map[string]bool{})
	j, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j.wait()
	v := j.view()
	if v.Status != StatusDone || v.Source != "sim" || v.Result == nil || v.Result.Cycles == 0 {
		t.Fatalf("job over a junk peer: %+v, want done from a local simulation", v)
	}
	if st, _ := svc.store.Get(t.Context(), v.Key); st == nil || st.Cycles != v.Result.Cycles {
		t.Errorf("cached result %+v, want the local simulation's", st)
	}
	if clu := svc.clu.Snap(); clu.ExecErrors != 1 || clu.ExecOK != 0 {
		t.Errorf("peer accounting %+v, want one exec error", clu)
	}
	if ok, fb := svc.metrics.forwardsOK.Load(), svc.metrics.forwardFallbacks.Load(); fb != 1 || ok != 0 {
		t.Errorf("forwards ok=%d fallback=%d, want one fallback", ok, fb)
	}
}

// TestPeerExecuteAnswersHeldKeys: an owner answers a forwarded key it
// already holds — from the key's record or, with no record, from the disk
// tier — even with every peer slot taken, and retains no job for it. A key
// it does not hold needs a slot, so it gets 429. The store's peer endpoint
// GET /v1/cache/{key} is gone.
func TestPeerExecuteAnswersHeldKeys(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	dir := t.TempDir()
	onDisk := RunRequest{Bench: "cp", Mech: "baseline"}
	recorded := RunRequest{Bench: "lps", Mech: "snake"}
	run := func(svc *Service, req RunRequest) RunView {
		t.Helper()
		j, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-j.wait()
		v := j.view()
		if v.Status != StatusDone {
			t.Fatalf("%s/%s: %s (%s)", v.Bench, v.Mech, v.Status, v.Error)
		}
		return v
	}
	first := New(Options{Workers: 1, GPU: &gpu, Scale: &scale, CacheDir: dir})
	want := map[string]RunView{"disk": run(first, onDisk)}
	shutdown(t, first)

	svc := New(Options{Workers: 1, GPU: &gpu, Scale: &scale, CacheDir: dir})
	defer shutdown(t, svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	want["memory"] = run(svc, recorded)
	for i := 0; i < cap(svc.peerSlots); i++ {
		svc.peerSlots <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(svc.peerSlots); i++ {
			<-svc.peerSlots
		}
	}()
	retained := func() float64 {
		return metricValue(t, scrapeMetrics(t, ts.URL), "snaked_jobs_retained")
	}
	jobs0, in0 := retained(), svc.metrics.forwardedIn.Load()

	for source, req := range map[string]RunRequest{"disk": onDisk, "memory": recorded} {
		resp, body := postJSON(t, ts.URL+"/v1/peer/execute", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("held %s key: %d %s, want 200", source, resp.StatusCode, body)
		}
		if got := resp.Header.Get(cluster.SourceHeader); got != source {
			t.Errorf("held %s key answered from %q", source, got)
		}
		if got := resp.Header.Get(cluster.KeyHeader); got != want[source].Key {
			t.Errorf("held %s key: key header %q, want %q", source, got, want[source].Key)
		}
		var st stats.Sim
		if err := json.Unmarshal(body, &st); err != nil || *summarize(&st) != *want[source].Result {
			t.Errorf("held %s key: body %s (%v), want %+v", source, body, err, want[source].Result)
		}
	}
	if jobs := retained(); jobs != jobs0 {
		t.Errorf("forwarded hits retained jobs: %v → %v", jobs0, jobs)
	}
	if in := svc.metrics.forwardedIn.Load(); in != in0+2 {
		t.Errorf("forwarded_in %d → %d, want one per request", in0, in)
	}

	rejected := func() (jobs, peer float64) {
		m := scrapeMetrics(t, ts.URL)
		return metricValue(t, m, "snaked_jobs_rejected_total"), metricValue(t, m, "snaked_peer_rejected_total")
	}
	jobsRej0, peerRej0 := rejected()
	resp, body := postJSON(t, ts.URL+"/v1/peer/execute", RunRequest{Bench: "mum", Mech: "baseline"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("unheld key with no peer slot: %d %s, want 429", resp.StatusCode, body)
	}
	if jobs := retained(); jobs != jobs0 {
		t.Errorf("a refused forward retained a job: %v → %v", jobs0, jobs)
	}
	// A refusal for lack of a peer slot is not a full queue.
	if jobsRej, peerRej := rejected(); jobsRej != jobsRej0 || peerRej != peerRej0+1 {
		t.Errorf("after a peer-slot refusal: jobs_rejected %v → %v (want unchanged), peer_rejected %v → %v (want +1)",
			jobsRej0, jobsRej, peerRej0, peerRej)
	}

	cresp, err := http.Get(ts.URL + "/v1/cache/" + want["memory"].Key)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/cache/{key}: %d, want 404 (no such route)", cresp.StatusCode)
	}
}
