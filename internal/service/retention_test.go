package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
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
// client re-sweeps. A terminal job holds what its RunView shows, in one-byte
// codes where it can, and a pointer to its key's shared record, and it takes
// one slot of the job table; its ID, spec, sweep, channel and context are
// not kept once it finishes. 500 cached re-sweeps of a 32-cell
// grid, on a service that simulated the grid itself and, over a disk tier
// with a one-byte memory tier, on one restarted on a disk tier a first
// service filled: there the first re-sweep reads every cell from disk, and
// later ones from the records that read made.
func TestRetainedJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	const (
		warmup   = 20
		sweeps   = 500
		maxBytes = 128 // per terminal job
	)
	req := SweepRequest{
		Benches: workloads.Names()[:8],
		Mechs:   []string{"baseline", "intra", "inter", "snake"},
	}
	cells := len(req.Benches) * len(req.Mechs)
	// sweep runs one sweep on svc to completion and returns how many of its
	// cells were served from source. It keeps no job.
	sweep := func(t *testing.T, svc *Service, source string) int {
		t.Helper()
		_, jobs, err := svc.SubmitSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, j := range jobs {
			<-j.wait()
			if v := j.view(); v.Status != StatusDone {
				t.Fatalf("%s/%s: %s (%s)", v.Bench, v.Mech, v.Status, v.Error)
			} else if v.Source == source {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name string
		disk bool
	}{{"memory", false}, {"disk", true}} {
		t.Run(tc.name, func(t *testing.T) {
			gpu := config.Scaled(2, 16)
			scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
			opt := Options{Workers: 2, GPU: &gpu, Scale: &scale}
			if tc.disk {
				opt.CacheDir, opt.CacheMaxBytes = t.TempDir(), 1
				first := New(opt)
				sweep(t, first, "sim")
				shutdown(t, first)
			}
			svc := New(opt)
			defer shutdown(t, svc)
			if tc.disk {
				if n := sweep(t, svc, "disk"); n != cells {
					t.Fatalf("%d of %d cells served from disk after the restart, want all", n, cells)
				}
			}
			for i := 0; i < warmup; i++ {
				sweep(t, svc, "memory")
			}
			before := liveHeap()
			hits := 0
			for i := 0; i < sweeps; i++ {
				hits += sweep(t, svc, "memory")
			}
			after := liveHeap()
			if hits != sweeps*cells {
				t.Fatalf("%d of %d re-swept cells served from memory, want all", hits, sweeps*cells)
			}
			per := (float64(after) - float64(before)) / float64(sweeps*cells)
			t.Logf("%.0f B retained per terminal job (%d jobs)", per, sweeps*cells)
			if per > maxBytes {
				t.Errorf("%.0f B retained per terminal job, want ≤ %d", per, maxBytes)
			}
		})
	}
}

// TestRetainedSweepBytes pins what snaked keeps per sweep beside its jobs.
// The service never evicts a sweep either: it keeps the sweep's number, the
// range of the job table its cells fill, and a slot of the sweep table, but
// no ID string, cell list or stream subscriber. 300 cached re-sweeps of a
// 32-cell grid are counted by dropping them from the sweep table, which
// leaves their jobs where they are.
func TestRetainedSweepBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	const (
		warmup   = 20
		sweeps   = 300
		maxBytes = 128 // per sweep, its jobs not counted
	)
	svc := tinyService(2)
	defer shutdown(t, svc)
	req := SweepRequest{
		Benches: workloads.Names()[:8],
		Mechs:   []string{"baseline", "intra", "inter", "snake"},
	}
	sweep := func() {
		t.Helper()
		_, jobs, err := svc.SubmitSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			<-j.wait()
		}
	}
	for i := 0; i < warmup; i++ {
		sweep()
	}
	svc.mu.Lock()
	kept := len(svc.sweeps)
	svc.mu.Unlock()
	for i := 0; i < sweeps; i++ {
		sweep()
	}
	with := liveHeap()
	svc.mu.Lock()
	svc.sweeps = slices.Clone(svc.sweeps[:kept])
	svc.mu.Unlock()
	without := liveHeap()
	per := (float64(with) - float64(without)) / sweeps
	t.Logf("%.0f B retained per sweep of %d cells, its jobs not counted (%d sweeps)", per, len(req.Benches)*len(req.Mechs), sweeps)
	if per > maxBytes {
		t.Errorf("%.0f B retained per sweep, want ≤ %d", per, maxBytes)
	}
}

// withPinnedWorkers runs fn while every worker of svc is held on a run that
// cannot finish, so every job fn admits stays queued until fn returns. Each
// pinning run has a machine no other job runs, so it misses every tier and
// waits for its key's flight, and the flight lock is held while fn runs.
// withPinnedWorkers returns once the pinning runs have finished.
func withPinnedWorkers(t testing.TB, svc *Service, fn func()) {
	t.Helper()
	var pins []*job
	func() {
		svc.flightMu.Lock()
		defer svc.flightMu.Unlock()
		for i := 0; i < svc.workers; i++ {
			gpu := svc.runner.Cfg
			gpu.IcntLatency = 1 + i
			j, err := svc.Submit(RunRequest{Bench: "cp", Mech: "baseline", GPU: &gpu, Priority: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, j)
		}
		for _, j := range pins {
			for st := j.view().Status; st != StatusRunning; st = j.view().Status {
				if st.Terminal() {
					t.Fatalf("pinning run %s is %s: its key was not fresh", j.id(), st)
				}
				time.Sleep(time.Millisecond)
			}
		}
		fn()
	}()
	for _, j := range pins {
		<-j.wait()
	}
}

// TestRejectedSubmissionIDsReused: a rejected sweep or run takes its jobs
// back out of the job table, so their IDs answer 404, and the next jobs
// admitted take their numbers; a rejected sweep takes no sweep number.
func TestRejectedSubmissionIDsReused(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: 1, QueueMax: 2, GPU: &gpu, Scale: &scale})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer shutdown(t, svc)
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	submit := func(mech string) (*job, error) {
		return svc.Submit(RunRequest{Bench: "cp", Mech: mech})
	}

	var first int // the number of the rejected sweep's first cell
	var queued []*job
	withPinnedWorkers(t, svc, func() {
		svc.mu.Lock()
		first = len(svc.jobs) + 1
		svc.mu.Unlock()
		// Two cells fill the queue and the third is refused.
		if _, _, err := svc.SubmitSweep(SweepRequest{Benches: []string{"cp"}, Mechs: []string{"baseline", "intra", "inter"}}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("sweep over a full queue: %v, want ErrQueueFull", err)
		}
		for i := 0; i < 3; i++ {
			if id := formatID('r', jobIDWidth, first+i); status("/v1/runs/"+id) != http.StatusNotFound {
				t.Errorf("rejected sweep's cell %s answers", id)
			}
		}
		// Two runs take the rejected cells' numbers and fill the queue, and a
		// third is refused.
		for i, mech := range []string{"baseline", "intra"} {
			j, err := submit(mech)
			if err != nil {
				t.Fatal(err)
			}
			if j.n != first+i {
				t.Errorf("run %d took number %d, want the rejected cell's %d", i, j.n, first+i)
			}
			queued = append(queued, j)
		}
		if _, err := submit("inter"); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("run over a full queue: %v, want ErrQueueFull", err)
		}
	})
	for _, j := range queued {
		<-j.wait()
	}
	refused := formatID('r', jobIDWidth, first+2)
	if got := status("/v1/runs/" + refused); got != http.StatusNotFound {
		t.Errorf("refused run's %s: %d, want 404", refused, got)
	}
	j, err := submit("inter")
	if err != nil {
		t.Fatal(err)
	}
	if j.id() != refused {
		t.Errorf("next run is %s, want the refused run's %s", j.id(), refused)
	}
	<-j.wait()
	if got := status("/v1/runs/" + refused); got != http.StatusOK {
		t.Errorf("%s: %d once admitted, want 200", refused, got)
	}
	sw, _, err := svc.SubmitSweep(SweepRequest{Benches: []string{"cp"}, Mechs: []string{"baseline"}})
	if err != nil {
		t.Fatal(err)
	}
	if sw.id() != "s0001" {
		t.Errorf("first admitted sweep is %s, want s0001: the rejected one took no number", sw.id())
	}
}

// TestRefusedSubmissionLeavesNoRecords: a refused run or sweep on keys the
// service has never seen takes back the records its jobs created, so
// snaked_result_records does not move, and a later admission of the same
// keys simulates each key once.
func TestRefusedSubmissionLeavesNoRecords(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: 1, QueueMax: 2, GPU: &gpu, Scale: &scale})
	defer shutdown(t, svc)
	records := func() float64 { return metricValue(t, renderMetrics(svc), "snaked_result_records") }
	submit := func(mech string) (*job, error) {
		return svc.Submit(RunRequest{Bench: "lps", Mech: mech})
	}
	sweep := SweepRequest{Benches: []string{"lps"}, Mechs: []string{"baseline", "intra", "inter"}}

	var queued []*job
	withPinnedWorkers(t, svc, func() {
		before := records()
		// Two cells fill the queue and the third is refused.
		if _, _, err := svc.SubmitSweep(sweep); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("sweep over a full queue: %v, want ErrQueueFull", err)
		}
		if got := records(); got != before {
			t.Errorf("snaked_result_records %v after a refused sweep, want %v", got, before)
		}
		for _, mech := range []string{"baseline", "intra"} {
			j, err := submit(mech)
			if err != nil {
				t.Fatal(err)
			}
			queued = append(queued, j)
		}
		before = records()
		if _, err := submit("mta"); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("run over a full queue: %v, want ErrQueueFull", err)
		}
		if got := records(); got != before {
			t.Errorf("snaked_result_records %v after a refused run, want %v", got, before)
		}
	})
	for _, j := range queued {
		<-j.wait()
	}
	// The queue holds two jobs, so the keys come back one run at a time,
	// twice: the second round finds every key's record.
	mechs := append(sweep.Mechs, "mta")
	for round := 0; round < 2; round++ {
		for _, mech := range mechs {
			j, err := submit(mech)
			if err != nil {
				t.Fatal(err)
			}
			<-j.wait()
			if v := j.view(); v.Status != StatusDone {
				t.Fatalf("%s: %s (%s)", v.ID, v.Status, v.Error)
			}
		}
	}
	if got := labeledMetric(t, renderMetrics(svc), `snaked_sim_wall_ms_count{bench="lps"}`); got != 4 {
		t.Errorf("%v simulations of lps's 4 keys, want 4", got)
	}
}

// TestResweepReadsNoSlot: a re-sweep is served from its keys' records, so
// even with a one-byte memory tier, which leaves every result but one on
// disk alone, no cell reads a slot, and every cell says it came from
// memory.
func TestResweepReadsNoSlot(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: 2, GPU: &gpu, Scale: &scale, CacheDir: t.TempDir(), CacheMaxBytes: 1})
	defer shutdown(t, svc)
	req := SweepRequest{Benches: workloads.Names()[:4], Mechs: []string{"baseline", "snake"}}
	sweep := func(source string) {
		t.Helper()
		_, jobs, err := svc.SubmitSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			<-j.wait()
			if v := j.view(); v.Status != StatusDone || v.Source != source {
				t.Fatalf("%s/%s: %s from %q, want done from %q (%s)", v.Bench, v.Mech, v.Status, v.Source, source, v.Error)
			}
		}
	}
	sweep("sim")
	before := svc.store.Snap()
	if before.DiskEntries != int64(len(req.Benches)*len(req.Mechs)) || before.MemEntries != 1 {
		t.Fatalf("after the first sweep: %+v, want every result on disk and one resident", before)
	}
	for i := 0; i < 3; i++ {
		sweep("memory")
	}
	if after := svc.store.Snap(); after.DiskHits != before.DiskHits || after.MemHits != before.MemHits || after.Misses != before.Misses {
		t.Errorf("re-sweeps looked in the result store: before %+v after %+v", before, after)
	}
}

// TestRunViewAfterFinish: a terminal job answers from its compact state (its
// own status, source and error plus its key's shared record) with every
// field the wire promises. Each case is a one-cell sweep, so GET
// /v1/runs/{id}, the sweep roll-up and the sweep stream must all show the
// same view. The service starts on a disk tier a first service filled with
// lps/baseline, so that key's first job comes from disk and later ones
// from memory.
func TestRunViewAfterFinish(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	opt := Options{Workers: 1, GPU: &gpu, Scale: &scale, CacheDir: t.TempDir()}
	first := New(opt)
	j, err := first.Submit(RunRequest{Bench: "lps", Mech: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	<-j.wait()
	shutdown(t, first)
	svc := New(opt)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(t.Context())

	custom := core.Defaults()
	custom.TailEntries = 5
	type want struct {
		bench, mech string
		status      Status
		source      string
		cached      bool
		err         string // substring; "" means the field is empty
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
	run("disk", SweepRequest{Benches: []string{"lps"}, Mechs: []string{"baseline"}}, done("lps", "baseline", "disk"))
	run("memory", SweepRequest{Benches: []string{"lps"}, Mechs: []string{"baseline"}}, done("lps", "baseline", "memory"))
	run("sim", SweepRequest{Benches: []string{"cp"}, Mechs: []string{"baseline"}}, done("cp", "baseline", "sim"))
	run("custom snake", SweepRequest{Benches: []string{"lps"}, Snake: &custom}, done("lps", "snake:custom", "sim"))

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
			if v.Bench != w.bench || v.Mech != w.mech {
				t.Errorf("label %q %q, want %q %q", v.Bench, v.Mech, w.bench, w.mech)
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
			if prev, ok := keys[w.bench+w.mech]; ok && w.status == StatusDone && prev != v.Key {
				t.Errorf("key %s, want the earlier job's %s", v.Key, prev)
			}
			keys[w.bench+w.mech] = v.Key
		})
	}
}

// TestRetentionMetrics: /metrics reports the retained jobs and sweeps and
// the per-key records. A re-sweep adds jobs and a sweep but no records, and
// a re-sweep the full queue refuses adds none of them: only the run pinning
// the worker (one job, one record) and the queued run that leaves the
// queue room for three of its four cells (one job) are left.
func TestRetentionMetrics(t *testing.T) {
	gpu := config.Scaled(2, 16)
	scale := workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 2}
	svc := New(Options{Workers: 1, QueueMax: 4, GPU: &gpu, Scale: &scale})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(t.Context())

	check := func(jobs, sweeps, records float64) {
		t.Helper()
		m := scrapeMetrics(t, ts.URL)
		if got := metricValue(t, m, "snaked_jobs_retained"); got != jobs {
			t.Errorf("snaked_jobs_retained = %v, want %v", got, jobs)
		}
		if got := metricValue(t, m, "snaked_sweeps_retained"); got != sweeps {
			t.Errorf("snaked_sweeps_retained = %v, want %v", got, sweeps)
		}
		if got := metricValue(t, m, "snaked_result_records"); got != records {
			t.Errorf("snaked_result_records = %v, want %v", got, records)
		}
		if !strings.Contains(m, "# HELP snaked_sweeps_retained ") {
			t.Error("snaked_sweeps_retained has no HELP line")
		}
	}
	req := SweepRequest{Benches: []string{"cp", "lps"}, Mechs: []string{"baseline", "snake"}}
	sweep := func() {
		t.Helper()
		_, jobs, err := svc.SubmitSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			<-j.wait()
		}
	}
	check(0, 0, 0)
	sweep()
	check(4, 1, 4)
	sweep()
	check(8, 2, 4)
	var queued *job
	withPinnedWorkers(t, svc, func() {
		var err error
		if queued, err = svc.Submit(RunRequest{Bench: "cp", Mech: "baseline"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.SubmitSweep(req); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("sweep over a full queue: %v, want ErrQueueFull", err)
		}
	})
	<-queued.wait()
	check(10, 2, 5)
}

// TestTraceBytesMetric: /metrics reports the instruction bytes of the
// traces the service's runs interned (trace.Kernel.Bytes). The
// service runs on a store of its own here, so other tests' traces do not
// count.
func TestTraceBytesMetric(t *testing.T) {
	svc := tinyService(2)
	svc.runner.Store = workloads.NewStore() // before any job reads it
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer shutdown(t, svc)

	benches := []string{"cp", "lps", "nw"}
	_, jobs, err := svc.SubmitSweep(SweepRequest{Benches: benches, Mechs: []string{"baseline", "snake"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		<-j.wait()
	}
	var want float64
	for _, b := range benches {
		k, err := workloads.Build(b, svc.runner.Scale)
		if err != nil {
			t.Fatal(err)
		}
		want += float64(k.Bytes())
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "snaked_trace_bytes"); got != want {
		t.Errorf("snaked_trace_bytes = %v, want %v", got, want)
	}
}
