package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/workloads"
)

// liveHeap returns the live heap after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedJobBytes pins what snaked keeps per finished job. The service
// never evicts a job, so the live heap grows by this much for every cell a
// client re-sweeps. A terminal job holds what its RunView shows and a
// pointer to its key's shared record; the spec, context and stats copy it
// ran with are garbage once it finishes. 500 cached re-sweeps of a 32-cell
// grid, served from the memory tier and, with a one-byte memory tier and a
// disk tier, from disk (where each hit decodes a fresh stats copy).
func TestRetainedJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	const (
		warmup   = 20
		sweeps   = 500
		maxBytes = 448 // per terminal job
	)
	req := SweepRequest{
		Benches: workloads.Names()[:8],
		Mechs:   []string{"baseline", "intra", "inter", "snake"},
	}
	for _, tc := range []struct {
		name   string
		opt    func(t *testing.T) Options
		source string
	}{
		{"memory", func(*testing.T) Options { return Options{} }, "memory"},
		{"disk", func(t *testing.T) Options { return Options{CacheDir: t.TempDir(), CacheMaxBytes: 1} }, "disk"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gpu := config.Scaled(2, 16)
			scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
			opt := tc.opt(t)
			opt.Workers, opt.GPU, opt.Scale = 2, &gpu, &scale
			svc := New(opt)
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := svc.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			// sweep runs one sweep to completion and returns how many of its
			// cells were served from the tier under test. It keeps no job.
			sweep := func() int {
				_, jobs, err := svc.SubmitSweep(req)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, j := range jobs {
					<-j.done
					if v := j.view(); v.Status != StatusDone {
						t.Fatalf("%s/%s: %s (%s)", v.Bench, v.Mech, v.Status, v.Error)
					} else if v.Source == tc.source {
						n++
					}
				}
				return n
			}
			for i := 0; i < warmup; i++ {
				sweep()
			}
			before := liveHeap()
			hits := 0
			for i := 0; i < sweeps; i++ {
				hits += sweep()
			}
			after := liveHeap()
			cells := sweeps * len(req.Benches) * len(req.Mechs)
			if hits < cells*9/10 {
				t.Fatalf("%d of %d cells served from %s, want nearly all", hits, cells, tc.source)
			}
			per := (float64(after) - float64(before)) / float64(cells)
			t.Logf("%.0f B retained per terminal job (%d jobs)", per, cells)
			if per > maxBytes {
				t.Errorf("%.0f B retained per terminal job, want ≤ %d", per, maxBytes)
			}
		})
	}
}

// TestRunViewAfterFinish: a terminal job answers from its compact state (its
// own status, source and error plus its key's shared record) with every
// field the wire promises. Each case is a one-cell sweep, so GET
// /v1/runs/{id}, the sweep roll-up and the sweep stream must all show the
// same view. The memory tier holds one result, so a key re-served after
// another one ran comes from disk.
func TestRunViewAfterFinish(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: 1, GPU: &gpu, Scale: &scale, CacheDir: t.TempDir(), CacheMaxBytes: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(t.Context())

	custom := core.Defaults()
	custom.TailEntries = 5
	type want struct {
		bench, app, mech string
		chain            bool
		status           Status
		source           string
		cached           bool
		err              string // substring; "" means the field is empty
	}
	done := func(bench, mech, source string) want {
		return want{bench: bench, mech: mech, status: StatusDone, source: source, cached: source != "sim"}
	}
	submit := func(req SweepRequest) SweepView {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/sweeps", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %+v: %d %s", req, resp.StatusCode, body)
		}
		var sw SweepView
		if err := json.Unmarshal(body, &sw); err != nil {
			t.Fatal(err)
		}
		if sw.Total != 1 {
			t.Fatalf("sweep %+v has %d cells, want 1", req, sw.Total)
		}
		return sw
	}
	// stream reads a sweep's stream to its end and returns the cell line.
	stream := func(id string) RunView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var cells []RunView
		for sc.Scan() {
			if strings.Contains(sc.Text(), `"stream_done"`) {
				break
			}
			var v RunView
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, v)
		}
		if len(cells) != 1 {
			t.Fatalf("sweep %s streamed %d cells, want 1", id, len(cells))
		}
		return cells[0]
	}

	type cell struct {
		name  string
		sweep string
		want  want
	}
	var cells []cell
	run := func(name string, req SweepRequest, w want) {
		t.Helper()
		sw := submit(req)
		stream(sw.ID)
		cells = append(cells, cell{name, sw.ID, w})
	}
	run("sim", SweepRequest{Benches: []string{"lps"}, Mechs: []string{"baseline"}}, done("lps", "baseline", "sim"))
	run("memory", SweepRequest{Benches: []string{"lps"}, Mechs: []string{"baseline"}}, done("lps", "baseline", "memory"))
	run("other key", SweepRequest{Benches: []string{"cp"}, Mechs: []string{"baseline"}}, done("cp", "baseline", "sim"))
	run("disk", SweepRequest{Benches: []string{"lps"}, Mechs: []string{"baseline"}}, done("lps", "baseline", "disk"))
	run("custom snake", SweepRequest{Benches: []string{"lps"}, Snake: &custom}, done("lps", "snake:custom", "sim"))
	app := done("", "snake", "sim")
	app.app, app.chain = "warmup", true
	run("app with chain", SweepRequest{Apps: []string{"warmup"}, Chain: true, Mechs: []string{"snake"}}, app)

	// The one worker runs a long cell under a short timeout (it fails), and a
	// cell queued behind it is canceled.
	long := submit(SweepRequest{Benches: []string{"lps"}, Mechs: []string{"baseline"}, Scale: &bigScale, TimeoutMS: 500})
	waitRun(t, ts.URL, long.Jobs[0].ID, func(v RunView) bool { return v.Status != StatusQueued }, "started")
	queued := submit(SweepRequest{Benches: []string{"cp"}, Mechs: []string{"intra"}})
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+queued.Jobs[0].ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	stream(long.ID)
	stream(queued.ID)
	cells = append(cells,
		cell{"failed", long.ID, want{bench: "lps", mech: "baseline", status: StatusFailed, source: "sim", err: "deadline exceeded"}},
		cell{"canceled", queued.ID, want{bench: "cp", mech: "intra", status: StatusCanceled, err: "context canceled"}})

	keys := map[string]string{}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + "/v1/sweeps/" + c.sweep)
			if err != nil {
				t.Fatal(err)
			}
			var sw SweepView
			err = json.NewDecoder(resp.Body).Decode(&sw)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !sw.Done || sw.Pending != 0 || len(sw.Jobs) != 1 {
				t.Fatalf("roll-up %+v, want one terminal cell", sw)
			}
			v := getRun(t, ts.URL, sw.Jobs[0].ID)
			if !reflect.DeepEqual(sw.Jobs[0], v) {
				t.Errorf("roll-up shows %+v, run shows %+v", sw.Jobs[0], v)
			}
			if s := stream(c.sweep); !reflect.DeepEqual(s, v) {
				t.Errorf("stream shows %+v, run shows %+v", s, v)
			}
			w := c.want
			if v.Bench != w.bench || v.App != w.app || v.Chain != w.chain || v.Mech != w.mech {
				t.Errorf("label %q %q %v %q, want %q %q %v %q", v.Bench, v.App, v.Chain, v.Mech, w.bench, w.app, w.chain, w.mech)
			}
			if v.Status != w.status || v.Source != w.source || v.Cached != w.cached {
				t.Errorf("status %s source %q cached %v, want %s %q %v", v.Status, v.Source, v.Cached, w.status, w.source, w.cached)
			}
			if (v.Error == "") != (w.err == "") || !strings.Contains(v.Error, w.err) {
				t.Errorf("error %q, want %q", v.Error, w.err)
			}
			if len(v.Key) != 64 {
				t.Errorf("key %q, want 64 hex characters", v.Key)
			}
			if w.status == StatusDone {
				if v.Result == nil || v.Result.Cycles == 0 || v.Result.IPC <= 0 {
					t.Errorf("result %+v, want a run's summary", v.Result)
				}
			} else if v.Result != nil {
				t.Errorf("result %+v on a %s job", v.Result, v.Status)
			}
			// Queued-then-canceled jobs never ran, so they have no wall time.
			if (v.WallMS > 0) != (w.source != "") {
				t.Errorf("wall %v ms for a job from %q", v.WallMS, w.source)
			}
			if prev, ok := keys[w.bench+w.app+w.mech]; ok && w.status == StatusDone && prev != v.Key {
				t.Errorf("key %s, want the earlier job's %s", v.Key, prev)
			}
			keys[w.bench+w.app+w.mech] = v.Key
		})
	}
}

// TestRetentionMetrics: /metrics reports the retained jobs and the per-key
// records. A re-sweep adds jobs but no records.
func TestRetentionMetrics(t *testing.T) {
	svc := tinyService(2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(t.Context())

	check := func(jobs, records float64) {
		t.Helper()
		m := scrapeMetrics(t, ts.URL)
		if got := metricValue(t, m, "snaked_jobs_retained"); got != jobs {
			t.Errorf("snaked_jobs_retained = %v, want %v", got, jobs)
		}
		if got := metricValue(t, m, "snaked_result_records"); got != records {
			t.Errorf("snaked_result_records = %v, want %v", got, records)
		}
	}
	sweep := func() {
		t.Helper()
		_, jobs, err := svc.SubmitSweep(SweepRequest{Benches: []string{"cp", "lps"}, Mechs: []string{"baseline", "snake"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			<-j.done
		}
	}
	check(0, 0)
	sweep()
	check(4, 4)
	sweep()
	check(8, 4)
}
