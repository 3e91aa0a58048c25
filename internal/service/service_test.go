package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"snake/internal/cluster"
	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// tinyService builds a service over a small GPU and workload scale so the
// 32-job grid stays fast even under -race.
func tinyService(workers int) *Service {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	return New(Options{Workers: workers, GPU: &gpu, Scale: &scale})
}

// bigScale runs for several seconds on the tiny GPU (measured ~7s without
// -race), so the test reliably observes it mid-simulation and cancels it.
var bigScale = workloads.Scale{CTAs: 1024, WarpsPerCTA: 8, Iters: 128}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

func getRun(t *testing.T, base, id string) RunView {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v RunView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitRun(t *testing.T, base, id string, pred func(RunView) bool, what string) RunView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last RunView
	for time.Now().Before(deadline) {
		last = getRun(t, base, id)
		if pred(last) {
			return last
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for run %s to be %s (last: %+v)", id, what, last)
	return RunView{}
}

// metricValue scrapes one un-labelled metric from the /metrics text.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %f", &v); err == nil &&
			strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestServiceEndToEnd is the acceptance scenario: ≥32 concurrent jobs over a
// 4-worker pool, a cache hit for a duplicate config, a mid-simulation
// context cancellation, metrics consistency, and a graceful shutdown drain.
func TestServiceEndToEnd(t *testing.T) {
	svc := tinyService(4)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	benches := workloads.Names()
	mechs := []string{"baseline", "intra", "inter"}

	// The long-running victim goes first at top priority so it is running
	// while the tiny grid queues behind it.
	resp, body := postJSON(t, ts.URL+"/v1/runs", RunRequest{
		Bench: "lps", Mech: "baseline", Scale: &bigScale, Priority: 100,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long job: %d %s", resp.StatusCode, body)
	}
	var longJob RunView
	if err := json.Unmarshal(body, &longJob); err != nil {
		t.Fatal(err)
	}

	// 30 distinct (bench, mech) combos plus one duplicate of the first at
	// the lowest priority, so it pops after its twin completed → cache hit.
	var ids []string
	for i := 0; i < 30; i++ {
		req := RunRequest{Bench: benches[i%len(benches)], Mech: mechs[i/len(benches)]}
		resp, body := postJSON(t, ts.URL+"/v1/runs", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var v RunView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	resp, body = postJSON(t, ts.URL+"/v1/runs", RunRequest{
		Bench: benches[0], Mech: mechs[0], Priority: -10,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit duplicate: %d %s", resp.StatusCode, body)
	}
	var dup RunView
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, dup.ID)

	// Cancel the long job once it is actually simulating.
	waitRun(t, ts.URL, longJob.ID, func(v RunView) bool { return v.Status == StatusRunning }, "running")
	creq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+longJob.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cresp, err := http.DefaultClient.Do(creq); err != nil {
		t.Fatal(err)
	} else {
		cresp.Body.Close()
	}
	victim := waitRun(t, ts.URL, longJob.ID,
		func(v RunView) bool { return v.Status.Terminal() }, "terminal")
	if victim.Status != StatusCanceled {
		t.Errorf("long job status = %s, want canceled (error %q)", victim.Status, victim.Error)
	}
	if victim.Status == StatusCanceled && !strings.Contains(victim.Error, "context canceled") {
		t.Errorf("canceled job error = %q, want a context cancellation", victim.Error)
	}

	// Drain the grid.
	for _, id := range ids {
		v := waitRun(t, ts.URL, id, func(v RunView) bool { return v.Status.Terminal() }, "terminal")
		if v.Status != StatusDone {
			t.Errorf("job %s: status %s (error %q)", id, v.Status, v.Error)
		}
	}
	dupDone := getRun(t, ts.URL, dup.ID)
	if !dupDone.Cached {
		t.Errorf("duplicate job was not served from cache: %+v", dupDone)
	}
	if dupDone.Key == "" || dupDone.Key != getRun(t, ts.URL, ids[0]).Key {
		t.Errorf("duplicate job key %q does not match its twin", dupDone.Key)
	}

	// Metrics must be consistent with the completed work: 32 submissions,
	// all terminal, ≥1 cache hit, nothing queued or running.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	m := string(mbody)
	if got := metricValue(t, m, "snaked_jobs_submitted_total"); got != 32 {
		t.Errorf("submitted = %v, want 32", got)
	}
	completed := metricValue(t, m, "snaked_jobs_completed_total")
	failed := metricValue(t, m, "snaked_jobs_failed_total")
	canceled := metricValue(t, m, "snaked_jobs_canceled_total")
	if completed+failed+canceled != 32 {
		t.Errorf("terminal jobs = %v+%v+%v, want 32", completed, failed, canceled)
	}
	if canceled < 1 {
		t.Errorf("canceled = %v, want ≥ 1", canceled)
	}
	if failed != 0 {
		t.Errorf("failed = %v, want 0", failed)
	}
	if hits := metricValue(t, m, "snaked_cache_hits_total"); hits < 1 {
		t.Errorf("cache hits = %v, want ≥ 1", hits)
	}
	if q := metricValue(t, m, "snaked_jobs_queued"); q != 0 {
		t.Errorf("queued = %v, want 0", q)
	}
	if r := metricValue(t, m, "snaked_jobs_running"); r != 0 {
		t.Errorf("running = %v, want 0", r)
	}
	if !strings.Contains(m, `snaked_sim_wall_ms_count{bench="`+benches[0]+`"}`) {
		t.Errorf("per-benchmark wall histogram missing:\n%s", m)
	}

	// Graceful shutdown drains cleanly and then refuses new work.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/runs", RunRequest{Bench: "lps", Mech: "baseline"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d %s, want 503", resp.StatusCode, body)
	}
	ms := svc.metrics
	if r, done, sub := ms.running.Load(), ms.completed.Load()+ms.failed.Load()+ms.canceled.Load(), ms.submitted.Load(); r != 0 || done != sub {
		t.Errorf("post-drain metrics inconsistent: running=%d completed+failed+canceled=%d submitted=%d", r, done, sub)
	}
}

// TestWaitModeClientDisconnect verifies that a client abandoning a
// synchronous POST /v1/runs?wait=1 cancels the in-flight simulation.
func TestWaitModeClientDisconnect(t *testing.T) {
	svc := tinyService(2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	b, err := json.Marshal(RunRequest{Bench: "mum", Mech: "baseline", Scale: &bigScale})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/runs?wait=1", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	// Find the job and wait until it is simulating, then drop the client.
	var j *job
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		svc.mu.Lock()
		for _, cand := range svc.jobs {
			j = cand
		}
		svc.mu.Unlock()
		if j != nil {
			j.mu.Lock()
			running := j.status == StatusRunning
			j.mu.Unlock()
			if running {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if j == nil {
		t.Fatal("job never appeared")
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Error("request unexpectedly succeeded after client disconnect")
	}
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatal("job did not terminate after client disconnect")
	}
	j.mu.Lock()
	st := j.status
	j.mu.Unlock()
	if st != StatusCanceled {
		t.Errorf("job status = %s, want canceled", st)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := svc.Shutdown(ctx2); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestQueueOrdering checks priority-then-FIFO pop order.
func TestQueueOrdering(t *testing.T) {
	q := newJobQueue(0)
	mk := func(id string, prio int, seq int64) *job {
		return &job{id: id, live: &jobLive{spec: spec{priority: prio}, seq: seq}, done: make(chan struct{})}
	}
	for _, j := range []*job{mk("low", -1, 1), mk("a", 0, 2), mk("b", 0, 3), mk("high", 7, 4)} {
		if err := q.Push(j); err != nil {
			t.Fatalf("push %s: %v", j.id, err)
		}
	}
	var got []string
	for i := 0; i < 4; i++ {
		j, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, j.id)
	}
	want := []string{"high", "a", "b", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	q.Close()
	if _, ok := q.Pop(); ok {
		t.Error("Pop after Close on empty queue returned a job")
	}
	if err := q.Push(mk("x", 0, 9)); err == nil {
		t.Error("Push after Close succeeded")
	}

	// Bounded depth: the third push into a depth-2 queue is rejected with
	// ErrQueueFull.
	qb := newJobQueue(2)
	if err := qb.Push(mk("1", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := qb.Push(mk("2", 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := qb.Push(mk("3", 0, 3)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("push past depth: err = %v, want ErrQueueFull", err)
	}
}

// TestSweepRollup submits a small sweep over HTTP and polls it to done.
func TestSweepRollup(t *testing.T) {
	svc := tinyService(4)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	resp, body := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Benches: []string{"cp", "lps"}, Mechs: []string{"baseline", "snake"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit sweep: %d %s", resp.StatusCode, body)
	}
	var sw SweepView
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Total != 4 {
		t.Fatalf("sweep total = %d, want 4", sw.Total)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + sw.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v SweepView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.Done {
			for _, jv := range v.Jobs {
				if jv.Status != StatusDone {
					t.Errorf("sweep job %s: %s (%s)", jv.ID, jv.Status, jv.Error)
				}
				if jv.Result == nil || jv.Result.IPC <= 0 {
					t.Errorf("sweep job %s: missing result", jv.ID)
				}
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("sweep did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitValidation rejects unknown benchmarks, mechanisms, and fields.
func TestSubmitValidation(t *testing.T) {
	svc := tinyService(1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	for name, req := range map[string]RunRequest{
		"unknown bench": {Bench: "nope", Mech: "baseline"},
		"unknown mech":  {Bench: "lps", Mech: "nope"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/runs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, resp.StatusCode, body)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"bench":"lps","mech":"baseline","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}
}

// TestUnbuildableGPURejected pins that a "gpu" override the engine cannot
// build gets a 400 naming the field, instead of reaching a worker: an L2 of
// 48 KB at 16 ways has 24 sets, and the cache indexes sets by bit mask.
func TestUnbuildableGPURejected(t *testing.T) {
	svc := tinyService(1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	gpu := config.Scaled(4, 64)
	gpu.L2.SizeBytes = 48 << 10
	resp, body := postJSON(t, ts.URL+"/v1/runs?wait=1", RunRequest{Bench: "lps", Mech: "baseline", GPU: &gpu})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("48 KB L2: %d %s, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "L2") || !strings.Contains(string(body), "power of two") {
		t.Errorf("48 KB L2: error %s does not name the L2 geometry", body)
	}
}

// TestOversizedRequestRejected pins that a "scale" or "snake" override
// beyond its limits gets a 400 naming the field before anything is built:
// the store would keep the trace for the life of the process, and every SM
// would allocate the Snake tables.
func TestOversizedRequestRejected(t *testing.T) {
	svc := tinyService(1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	snake := func(set func(*core.Config)) *core.Config {
		cfg := core.Defaults()
		set(&cfg)
		return &cfg
	}
	cases := []struct {
		name, path, field string
		req               any
	}{
		{"1M CTAs", "/v1/runs?wait=1", "CTAs",
			RunRequest{Bench: "lps", Mech: "baseline", Scale: &workloads.Scale{CTAs: 1_000_000, WarpsPerCTA: 8, Iters: 12}}},
		{"1M-entry tail", "/v1/runs?wait=1", "TailEntries",
			RunRequest{Bench: "lps", Snake: snake(func(c *core.Config) { c.TailEntries = 1 << 20 })}},
		{"halt above 1", "/v1/runs?wait=1", "BWHalt",
			RunRequest{Bench: "lps", Snake: snake(func(c *core.Config) { c.BWHalt = 2 })}},
		{"2M-unit sweep", "/v1/sweeps", "Iters",
			SweepRequest{Benches: []string{"lps"}, Mechs: []string{"baseline"},
				Scale: &workloads.Scale{CTAs: 2048, WarpsPerCTA: 8, Iters: 128}}},
		{"timeout past a Duration", "/v1/runs?wait=1", "timeout_ms",
			RunRequest{Bench: "lps", Mech: "baseline", TimeoutMS: 9223372036855}},
	}
	// Normalizing a bench request builds nothing, so this check is safe; an
	// accepted oversized scale would be built by the worker, gigabytes of
	// trace, so stop before posting it.
	for _, c := range cases {
		var err error
		switch r := c.req.(type) {
		case RunRequest:
			_, err = svc.normalize(r)
		case SweepRequest:
			_, err = svc.sweepSpecs(r)
		}
		if err == nil {
			t.Fatalf("%s: normalize accepts it", c.name)
		}
	}

	builds := workloads.Shared().Builds()
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", c.name, resp.StatusCode, body)
		} else if !strings.Contains(string(body), c.field) {
			t.Errorf("%s: error %s does not name %s", c.name, body, c.field)
		}
	}
	if got := workloads.Shared().Builds(); got != builds {
		t.Errorf("rejected requests built %d traces", got-builds)
	}
}

// TestRequestRejectsParallelismAndSlack pins that request content the
// service would drop is refused, not silently ignored: a run or a sweep
// carrying "parallelism" or "slack" (gone with the intra-run executor), or
// "app", "apps", "chain" or "split" (gone with multi-kernel runs), or a
// "gpu" override naming a Table 1 value config.GPU dropped because the
// engine never modelled it, or any override naming a field its type does not
// have, gets a 400 that names the field; a "gpu" or
// "scale" override under which a CTA has more warps than an SM has warp
// slots gets a 400 instead of a job that fails; a "mech" or non-empty
// "mechs" beside a "snake" config gets a 400 naming both, where the snake
// config used to replace it unsaid; and a body with anything after its
// JSON object gets a 400 on every POST endpoint, where the decoder used to
// read the first object and ignore the rest.
func TestRequestRejectsParallelismAndSlack(t *testing.T) {
	svc := tinyService(1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	for field, value := range map[string]string{
		"parallelism": `2`, "slack": `2`,
		"app": `"warmup"`, "apps": `["warmup"]`, "chain": `true`, "split": `1`,
	} {
		for path, body := range map[string]string{
			"/v1/runs":   `{"bench":"lps","mech":"baseline","` + field + `":` + value + `}`,
			"/v1/sweeps": `{"benches":["lps"],"mechs":["baseline"],"` + field + `":` + value + `}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `\"`+field+`\"`) {
				t.Errorf("POST %s with %q: %d %s, want 400 naming the field", path, field, resp.StatusCode, msg)
			}
		}
	}
	for field, override := range map[string]string{
		"RegFilePerSM": `"gpu":{"RegFilePerSM":65536}`, "MaxCTAsPerSM": `"gpu":{"MaxCTAsPerSM":32}`,
		"ThreadsPerSM": `"gpu":{"ThreadsPerSM":2048}`, "Banks": `"gpu":{"Unified":{"Banks":4}}`,
		"TWR": `"gpu":{"DRAM":{"TWR":10}}`, "TCCD": `"gpu":{"DRAM":{"TCCD":1}}`,
		"NumSMs": `"gpu":{"NumSMs":4}`, "TailEntrys": `"snake":{"TailEntrys":5}`,
		"Iter": `"scale":{"Iter":3}`,
	} {
		for path, body := range map[string]string{
			"/v1/runs":   `{"bench":"lps","mech":"baseline",` + override + `}`,
			"/v1/sweeps": `{"benches":["lps"],"mechs":["baseline"],` + override + `}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `\"`+field+`\"`) {
				t.Errorf("POST %s with %s: %d %s, want 400 naming the field", path, override, resp.StatusCode, msg)
			}
		}
	}
	narrow, err := json.Marshal(config.Scaled(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, override := range map[string]string{
		"gpu with 1 warp slot":    `"gpu":` + string(narrow),
		"scale with 32-warp CTAs": `"scale":{"CTAs":1,"WarpsPerCTA":32,"Iters":1}`,
	} {
		for path, body := range map[string]string{
			"/v1/runs":   `{"bench":"lps","mech":"baseline",` + override + `}`,
			"/v1/sweeps": `{"benches":["lps"],"mechs":["baseline"],` + override + `}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "does not fit") {
				t.Errorf("POST %s with %s: %d %s, want 400: a CTA must fit an SM", path, name, resp.StatusCode, msg)
			}
		}
	}
	for path, c := range map[string]struct{ body, fields string }{
		"/v1/runs":   {`{"bench":"lps","mech":"baseline","snake":{"TailEntries":5}}`, "mech and snake"},
		"/v1/sweeps": {`{"benches":["lps"],"mechs":["baseline"],"snake":{"TailEntries":5}}`, "mechs and snake"},
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.fields) {
			t.Errorf("POST %s %s: %d %s, want 400 naming %s", path, c.body, resp.StatusCode, msg, c.fields)
		}
	}
	for _, path := range []string{"/v1/runs", "/v1/sweeps", "/v1/peer/execute"} {
		obj := `{"bench":"lps","mech":"snake"}`
		if path == "/v1/sweeps" {
			obj = `{"benches":["lps"],"mechs":["snake"]}`
		}
		for _, trail := range []string{`{"bench":"cp"}`, `}`, ` x`, "\n[]"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(obj+trail))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "trailing data") {
				t.Errorf("POST %s with trailing %q: %d %s, want 400 naming the trailing data", path, trail, resp.StatusCode, msg)
			}
		}
	}
}

// TestOverridesDecodeOntoDefaults: over HTTP, on /v1/runs and /v1/sweeps
// alike, a "gpu" or "scale" override is the service's default with the
// fields the JSON holds, and a "snake" override is core.Defaults with them.
// A present field is taken literally: InterWarpDegree 0 is no inter-warp
// prefetching, and a zero count the config cannot run is a 400 naming it.
func TestOverridesDecodeOntoDefaults(t *testing.T) {
	svc := tinyService(1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer shutdown(t, svc)
	key := func(set func(*harness.RunKey)) string {
		k := svc.runner.Key("lps", "baseline")
		set(&k)
		return k.Hash()
	}
	snake := func(set func(*core.Config)) func(*harness.RunKey) {
		return func(k *harness.RunKey) {
			cfg := core.Defaults()
			set(&cfg)
			k.Mech, k.Snake = harness.CustomSnake, &cfg
		}
	}
	for _, c := range []struct {
		override string
		key      string // the content address it must run under, or ""
		field    string // what the 400 must name when key is ""
	}{
		{`"gpu":{"MLPPerWarp":8}`, key(func(k *harness.RunKey) { k.GPU.MLPPerWarp = 8 }), ""},
		{`"gpu":{"DRAM":{"TCL":20}}`, key(func(k *harness.RunKey) { k.GPU.DRAM.TCL = 20 }), ""},
		{`"snake":{"TailEntries":5}`, key(snake(func(c *core.Config) { c.TailEntries = 5 })), ""},
		{`"snake":{"InterWarpDegree":0}`, key(snake(func(c *core.Config) { c.InterWarpDegree = 0 })), ""},
		{`"scale":{"Iters":3}`, key(func(k *harness.RunKey) { k.Scale.Iters = 3 }), ""},
		{`"scale":{"Iters":0}`, "", "Iters 0"},
		{`"scale":{"Iters":-5}`, "", "Iters -5"},
		{`"snake":{"ChainDepth":0}`, "", "ChainDepth 0"},
		{`"gpu":{"L2":{"Ways":7}}`, "", "L2"},
	} {
		// A snake config is the mechanism, so its requests name none.
		mech, mechs := `"mech":"baseline",`, `"mechs":["baseline"],`
		if strings.HasPrefix(c.override, `"snake"`) {
			mech, mechs = "", ""
		}
		for path, body := range map[string]string{
			"/v1/runs":   `{"bench":"lps",` + mech + c.override + `}`,
			"/v1/sweeps": `{"benches":["lps"],` + mechs + c.override + `}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if c.key == "" {
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.field) {
					t.Errorf("POST %s with %s: %d %s, want 400 naming %s", path, c.override, resp.StatusCode, msg, c.field)
				}
				continue
			}
			var v struct {
				Key  string    `json:"key"`
				Jobs []RunView `json:"jobs"`
			}
			if resp.StatusCode != http.StatusAccepted || json.Unmarshal(msg, &v) != nil {
				t.Errorf("POST %s with %s: %d %s, want 202", path, c.override, resp.StatusCode, msg)
				continue
			}
			if len(v.Jobs) == 1 {
				v.Key = v.Jobs[0].Key
			}
			if v.Key != c.key {
				t.Errorf("POST %s with %s: key %s, want %s", path, c.override, v.Key, c.key)
			}
		}
	}
}

// TestCacheDirSurvivesRestart: a sweep on a service with a disk tier, then
// Shutdown, then a new service on the same directory: every cell comes
// back from disk with bit-identical stats. It also pins the store after
// Shutdown: a key only the disk tier holds is a plain miss there, neither
// dropped nor counted as a disk error.
func TestCacheDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	req := SweepRequest{Benches: []string{"cp", "lps", "mum"}, Mechs: []string{"baseline", "snake"}}
	sweep := func(svc *Service, source string) map[string]*stats.Sim {
		t.Helper()
		_, jobs, err := svc.SubmitSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]*stats.Sim, len(jobs))
		for _, j := range jobs {
			select {
			case <-j.done:
			case <-time.After(60 * time.Second):
				t.Fatalf("job %s did not finish", j.id)
			}
			if v := j.view(); v.Status != StatusDone || v.Source != source {
				t.Fatalf("%s/%s: status %s, source %q, want done from %q (%s)", v.Bench, v.Mech, v.Status, v.Source, source, v.Error)
			}
			out[j.rec.key] = j.rec.st.Load()
		}
		return out
	}
	shutdown := func(svc *Service) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}

	// A one-byte memory tier keeps only the latest result resident, so the
	// other cells live on disk alone.
	first := New(Options{Workers: 2, GPU: &gpu, Scale: &scale, CacheDir: dir, CacheMaxBytes: 1})
	want := sweep(first, "sim")
	shutdown(first)
	before := first.store.Snap()
	if before.DiskEntries != int64(len(want)) || before.MemEntries != 1 {
		t.Fatalf("before restart: %+v, want %d disk entries and 1 resident", before, len(want))
	}
	misses := 0
	for k := range want {
		if st, tier := first.store.Get(context.Background(), k); tier == cluster.TierNone && st == nil {
			misses++
		}
	}
	if misses != len(want)-1 {
		t.Errorf("after Shutdown %d of %d disk-only keys missed, want all", misses, len(want)-1)
	}
	if after := first.store.Snap(); after.DiskErrors != before.DiskErrors || after.DiskEntries != before.DiskEntries {
		t.Errorf("lookups after Shutdown changed the disk tier: before %+v after %+v", before, after)
	}

	second := New(Options{Workers: 2, GPU: &gpu, Scale: &scale, CacheDir: dir})
	defer shutdown(second)
	got := sweep(second, "disk")
	for k, st := range want {
		if !reflect.DeepEqual(got[k], st) {
			t.Errorf("key %s: stats after restart differ:\ngot  %+v\nwant %+v", k[:8], got[k], st)
		}
	}
}

// TestSingleflightFinishesFromRecord: concurrent jobs of one key run one
// simulation. The jobs that wait on it finish from the key's record, so
// none of them reads a store tier.
func TestSingleflightFinishesFromRecord(t *testing.T) {
	const n = 4
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: n, GPU: &gpu, Scale: &scale})
	defer shutdown(t, svc)
	// Long enough (tens of ms) that every worker picks its job up while the
	// first one simulates.
	req := RunRequest{Bench: "lps", Mech: "snake", Scale: &workloads.Scale{CTAs: 64, WarpsPerCTA: 8, Iters: 16}}
	jobs := make([]*job, n)
	for i := range jobs {
		j, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	sources := map[string]int{}
	for _, j := range jobs {
		<-j.done
		v := j.view()
		if v.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", v.ID, v.Status, v.Error)
		}
		sources[v.Source]++
	}
	if sources["sim"] != 1 || sources["memory"] != n-1 {
		t.Errorf("sources %v, want one sim and %d from memory", sources, n-1)
	}
	if got := labeledMetric(t, renderMetrics(svc), `snaked_sim_wall_ms_count{bench="lps"}`); got != 1 {
		t.Errorf("%v simulations, want 1", got)
	}
	if st := svc.store.Snap(); st.MemHits+st.DiskHits != 0 {
		t.Errorf("waiters read the store: %+v", st)
	}
}

// renderMetrics returns svc's /metrics text.
func renderMetrics(svc *Service) string {
	w := httptest.NewRecorder()
	svc.handleMetrics(w, nil)
	return w.Body.String()
}

// TestSweepSizeBounded: a sweep that names a bench or a mechanism twice gets
// a 400 naming it, and a body past maxBodyBytes gets a 413 on every POST
// endpoint. Neither admits a job.
func TestSweepSizeBounded(t *testing.T) {
	svc := tinyService(1)
	defer shutdown(t, svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	pad := strings.Repeat("x", maxBodyBytes)
	for _, c := range []struct {
		name, path, body string
		code             int
		names            string
	}{
		{"duplicate bench", "/v1/sweeps", `{"benches":["cp","lps","cp"],"mechs":["baseline"]}`, http.StatusBadRequest, `bench \"cp\"`},
		{"duplicate mech", "/v1/sweeps", `{"benches":["cp"],"mechs":["snake","baseline","snake"]}`, http.StatusBadRequest, `mechanism \"snake\"`},
		{"oversized sweep", "/v1/sweeps", `{"benches":["` + pad + `"],"mechs":["baseline"]}`, http.StatusRequestEntityTooLarge, "too large"},
		{"oversized run", "/v1/runs", `{"bench":"` + pad + `"}`, http.StatusRequestEntityTooLarge, "too large"},
		{"oversized forward", "/v1/peer/execute", `{"bench":"` + pad + `"}`, http.StatusRequestEntityTooLarge, "too large"},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code || !strings.Contains(string(body), c.names) {
			t.Errorf("%s: %d %s, want %d naming %s", c.name, resp.StatusCode, body, c.code, c.names)
		}
	}
	m := renderMetrics(svc)
	if got := metricValue(t, m, "snaked_jobs_submitted_total"); got != 0 {
		t.Errorf("%v jobs submitted, want none", got)
	}
	if got := metricValue(t, m, "snaked_jobs_retained"); got != 0 {
		t.Errorf("%v jobs retained, want none", got)
	}
}
