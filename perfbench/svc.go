package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/prefetch"
	"snake/internal/service"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// svcWorkers is snaked's worker count, and svc-cold's client count: the
// host's two cores.
const svcWorkers = 2

// server is an in-process snaked on a loopback port.
type server struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	served chan error
	client *http.Client
}

// startServer starts snaked with the disk tier in dir and the memory tier
// bounded to cacheMax bytes (0: unbounded).
func startServer(cacheMax int64, dir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Options{Workers: svcWorkers, Parallelism: 1, CacheMaxBytes: cacheMax, CacheDir: dir})
	s := &server{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcWorkers}, Timeout: 2 * time.Minute},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	if _, err := s.get("/healthz"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the HTTP server and drains the service, waiting for both.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.served
	_ = s.svc.Shutdown(ctx)
	s.client.CloseIdleConnections()
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, b)
	}
	return b, err
}

func (s *server) post(path string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, body)
	}
	return json.Unmarshal(body, out)
}

// counter reads one unlabelled counter from /metrics.
func (s *server) counter(name string) (float64, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// sweepResult is what one POST /v1/sweeps plus its stream read returned.
type sweepResult struct {
	submit  time.Duration // POST round trip
	first   time.Duration // from the POST to the first NDJSON line
	lines   []service.RunView
	end     service.StreamEnd
	latency time.Duration // from the POST to StreamEnd
}

// sweep submits req and reads its stream through to StreamEnd.
func (s *server) sweep(req service.SweepRequest) (*sweepResult, error) {
	r := &sweepResult{}
	t := time.Now()
	var sv service.SweepView
	if err := s.post("/v1/sweeps", req, &sv); err != nil {
		return nil, err
	}
	r.submit = time.Since(t)
	resp, err := s.client.Get(s.url + "/v1/sweeps/" + sv.ID + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if r.first == 0 {
			r.first = time.Since(t)
		}
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"stream_done"`)) {
			if err := json.Unmarshal(line, &r.end); err != nil {
				return nil, err
			}
			r.latency = time.Since(t)
			return r, nil
		}
		var v service.RunView
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, err
		}
		r.lines = append(r.lines, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("sweep %s: stream ended without StreamEnd", sv.ID)
}

// checkSweep verifies every line of a sweep against the grid references,
// counting each cell once. want names the sources a line may come from.
func checkSweep(e *env, p *pass, r *sweepResult, cells int, want ...string) {
	for _, v := range r.lines {
		err := e.refs.checkSummary(cell{v.Bench, v.Mech}.id(), v.Result)
		if err == nil && v.Status != service.StatusDone {
			err = fmt.Errorf("%s/%s: status %s: %s", v.Bench, v.Mech, v.Status, v.Error)
		}
		if err == nil && len(want) > 0 && !contains(want, v.Source) {
			err = fmt.Errorf("%s/%s: source %q, want one of %v", v.Bench, v.Mech, v.Source, want)
		}
		p.check(err)
	}
	if r.end.Completed != cells || r.end.Failed != 0 || len(r.lines) != cells {
		p.check(fmt.Errorf("sweep ended %+v after %d lines, want %d completed", r.end, len(r.lines), cells))
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// setupService is snaked's one-time work: intern the default-scale traces
// into st, warm pool on the paths the workload's jobs take, and start a server
// with its disk tier in dir. It returns the server, the set-up seconds and the
// intern timings. snaked itself draws on the process-wide store and pool,
// which cannot be emptied, so a workload's first set-up passes those and
// every later one a private store and pool doing the same work.
//
// registry says the workload's jobs name registry mechanisms (svc-resweep)
// rather than custom Snake configs (svc-cold).
func setupService(st *workloads.Store, pool *harness.EnginePool, cacheMax int64, dir string, registry bool) (*server, float64, interned, error) {
	settle()
	t := time.Now()
	in, err := intern(st, workloads.Names(), gridScale)
	if err != nil {
		return nil, 0, in, err
	}
	if registry {
		// Registry mechanisms take tagged pool paths: every mechanism on the
		// cheapest benchmark, one engine per worker, as the grid warms its
		// pool.
		k, _ := st.Kernel(warmBench, gridScale) // interned above
		err = warmPool(pool, []*trace.Kernel{k}, gridMechs, svcWorkers, harness.Mechanism)
	} else {
		// Custom Snake configs take the untagged path: one run of every
		// benchmark.
		var ks []*trace.Kernel
		for _, b := range workloads.Names() {
			k, _ := st.Kernel(b, gridScale) // interned above
			ks = append(ks, k)
		}
		snake := func(string) (harness.Factory, error) {
			return func(int) prefetch.Prefetcher { return core.NewSnake() }, nil
		}
		err = warmPool(pool, ks, []string{""}, 1, snake)
	}
	if err != nil {
		return nil, 0, in, err
	}
	s, err := startServer(cacheMax, dir)
	if err != nil {
		return nil, 0, in, err
	}
	secs := time.Since(t).Seconds()
	settle()
	return s, secs, in, nil
}

// setupShared is a workload's first set-up, on snaked's process-wide store
// and pool.
func setupShared(cacheMax int64, dir string, registry bool) (*server, float64, interned, error) {
	return setupService(workloads.Shared(), harness.SharedEnginePool(), cacheMax, dir, registry)
}

// setupPrivate repeats the set-up's work on a private store and pool.
func setupPrivate(cacheMax int64, dir string, registry bool) (*server, float64, error) {
	s, secs, _, err := setupService(workloads.NewStore(), harness.NewEnginePool(), cacheMax, dir, registry)
	return s, secs, err
}

// coldRepeatsPerRound sizes one svc-cold round: each of the 42 (benchmark,
// depth, degree) combinations three times, 126 ops, enough for ten beyond
// the p90. A round, with its set-up, takes ~3.3 s on a 2-core host.
const (
	coldRepeatsPerRound = 3
	coldRoundS          = 3.3
)

// measureCold runs the op list in rounds, each on the fresh server its
// set-up started, with its own disk tier, so every op is a cell that server
// has never seen.
func measureCold(e *env) (*pass, error) {
	ops := coldOps(e.seed, coldRepeatsPerRound)
	p := &pass{}
	for i := 0; i < rounds(e.seconds, coldRoundS); i++ {
		dir := filepath.Join(e.work, fmt.Sprint("cold-", i))
		var srv *server
		var secs float64
		var err error
		if i == 0 {
			srv, secs, _, err = setupShared(0, dir, false)
		} else {
			srv, secs, err = setupPrivate(0, dir, false)
		}
		if err != nil {
			return nil, err
		}
		p.setup(secs)
		r := coldRound(e, srv, ops, nil)
		srv.close()
		p.fold(r)
	}
	p.busy(svcWorkers)
	return p, nil
}

// coldRound: closed loop, two clients, each op one POST /v1/runs?wait=1 of a
// custom Snake config srv has never seen, timed from send. With a tracer each
// op gets a client span and the job's self-reported wall time as a child.
func coldRound(e *env, srv *server, ops []coldCell, tr *tracer) *pass {
	p := &pass{}
	p.lat = make([]float64, len(ops))
	errs := make([]error, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < svcWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				c := ops[i]
				cfg := c.cfg
				id, end := 0, func() {}
				if tr != nil {
					id, end = tr.begin("http.POST /v1/runs?wait=1", 0, i)
				}
				t := time.Now()
				var v service.RunView
				err := srv.post("/v1/runs?wait=1", service.RunRequest{Bench: c.bench, Snake: &cfg}, &v)
				p.lat[i] = ms(time.Since(t))
				end()
				if tr != nil && err == nil {
					tr.reported("service.job", id, i, time.Duration(v.WallMS*float64(time.Millisecond)))
				}
				switch {
				case err != nil:
				case v.Status != service.StatusDone:
					err = fmt.Errorf("%s: status %s: %s", c.id(), v.Status, v.Error)
				case v.Source != "sim":
					err = fmt.Errorf("%s: source %q, want a fresh simulation", c.id(), v.Source)
				default:
					err = e.refs.checkSummary(c.id(), v.Result)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	p.busy(svcWorkers)
	for _, err := range errs {
		p.check(err)
	}
	return p
}

// tracedCold runs one round of the op list, then one more on a second fresh
// server with spans.
func tracedCold(e *env, l *layers) error {
	ops := coldOps(e.seed, coldRepeatsPerRound)
	srv, _, in, err := setupShared(0, filepath.Join(e.work, "cold"), false)
	if err != nil {
		return err
	}
	in.report(l)
	untraced := coldRound(e, srv, ops, nil)
	srv.close()
	if srv, err = startServer(0, filepath.Join(e.work, "cold-traced")); err != nil {
		return err
	}
	tr := newTracer()
	traced := coldRound(e, srv, ops, tr)
	srv.close()
	l.add(untraced)
	l.add(traced)
	l.set("trace.overhead", traced.busyS/untraced.busyS-1, "share")
	l.set("trace.unattributed_share", tr.unattributed(), "share")
	return tr.write("svc-cold", e.seed)
}

// svc-resweep's op list is resweepOpsPerRound sweeps, enough for ten beyond
// the p90. A round takes under a second; the rounds start resweepRoundS
// apart, so they spread over the run as the other workloads' rounds do,
// while snaked, which retains every job it admits, grows by a fixed number
// of jobs per run.
const (
	resweepOpsPerRound = 100
	resweepRoundS      = 5
)

// setupResweep starts snaked with the memory tier bounded to about half the
// grid's result bytes (the disk tier holds everything), then fills it
// through snaked with one sweep of the whole grid: the cold fill. It returns
// the server, a pass holding the fill's checks and the service set-up
// seconds, the fill's seconds and the intern timings.
func setupResweep(e *env, benches []string, name string) (*server, *pass, float64, interned, error) {
	cells := gridCells(benches)
	srv, setupS, in, err := setupShared(resultBytes(e, cells)/2, filepath.Join(e.work, name), true)
	if err != nil {
		return nil, nil, 0, in, err
	}
	t := time.Now()
	p := &pass{setupS: setupS}
	r, err := srv.sweep(service.SweepRequest{Benches: benches, Mechs: gridMechs})
	if err != nil {
		srv.close()
		return nil, nil, 0, in, err
	}
	fillS := time.Since(t).Seconds()
	checkSweep(e, p, r, len(cells), "sim")
	return srv, p, fillS, in, nil
}

// resultBytes is what the cluster store charges its memory tier for the
// cells' results: each one's JSON size plus its per-entry overhead.
func resultBytes(e *env, cells []cell) int64 {
	var n int64
	for _, c := range cells {
		n += int64(e.refs[c.id()].Bytes) + 128
	}
	return n
}

// resweepOps runs n re-sweeps of the grid from one client, each a
// 121-cell POST /v1/sweeps with the bench and mech lists permuted from the
// seed, read through to StreamEnd.
func resweepOps(e *env, srv *server, benches []string, n int, tr *tracer) (*pass, []*sweepResult, error) {
	rng := rand.New(rand.NewSource(e.seed))
	p := &pass{}
	var results []*sweepResult
	for i := 0; i < n; i++ {
		req := service.SweepRequest{Benches: shuffled(rng, benches), Mechs: shuffled(rng, gridMechs)}
		id, end := 0, func() {}
		if tr != nil {
			id, end = tr.begin("sweep", 0, i)
		}
		r, err := srv.sweep(req)
		end()
		if err != nil {
			return nil, nil, err
		}
		p.lat = append(p.lat, ms(r.latency))
		if tr != nil {
			tr.reported("http.POST /v1/sweeps", id, i, r.submit)
			tr.reported("service.jobs", id, i, time.Duration(jobWallMS(r)/svcWorkers*float64(time.Millisecond)))
		}
		checkSweep(e, p, r, len(benches)*len(gridMechs), "memory", "disk")
		results = append(results, r)
	}
	p.busy(1)
	return p, results, nil
}

// jobWallMS is the sweep's summed job wall time as snaked reported it.
func jobWallMS(r *sweepResult) float64 {
	var t float64
	for _, v := range r.lines {
		t += v.WallMS
	}
	return t
}

// measureResweep: every round after the first starts with a private set-up
// in the gap before it, and setup_s is the fastest service set-up plus the
// one cold fill.
func measureResweep(e *env) (*pass, error) {
	srv, setup, fillS, _, err := setupResweep(e, workloads.Names(), "resweep")
	if err != nil {
		return nil, err
	}
	defer srv.close()
	p := &pass{}
	p.setup(setup.setupS)
	start := time.Now()
	for i := 0; i < rounds(e.seconds, resweepRoundS); i++ {
		if i > 0 {
			cacheMax := resultBytes(e, gridCells(workloads.Names())) / 2
			s, secs, err := setupPrivate(cacheMax, filepath.Join(e.work, fmt.Sprint("resweep-", i)), true)
			if err != nil {
				return nil, err
			}
			s.close()
			p.setup(secs)
		}
		time.Sleep(time.Until(start.Add(time.Duration(i) * resweepRoundS * time.Second)))
		r, _, err := resweepOps(e, srv, workloads.Names(), resweepOpsPerRound, nil)
		if err != nil {
			return nil, err
		}
		p.fold(r)
	}
	p.busy(1)
	p.setupS += fillS
	p.checked += setup.checked
	p.failed += setup.failed
	return p, nil
}

func tracedResweep(e *env, l *layers) error {
	return resweepLayers(e, l, workloads.Names(), resweepOpsPerRound, true)
}

// reducedResweep re-sweeps a three-benchmark slice of the grid, for traced
// runs of other workloads.
func reducedResweep(e *env, l *layers) error {
	return resweepLayers(e, l, []string{"cp", "lps", "hotspot"}, 20, false)
}

// resweepLayers runs the re-sweep ops untraced, then again with spans on the
// same server, and reads the store's tier counters across the traced ops.
func resweepLayers(e *env, l *layers, benches []string, n int, own bool) error {
	srv, setup, _, in, err := setupResweep(e, benches, "resweep-traced")
	if err != nil {
		return err
	}
	defer srv.close()
	in.report(l)
	l.add(setup)
	untraced, _, err := resweepOps(e, srv, benches, n, nil)
	if err != nil {
		return err
	}
	ev0, err := srv.counter("snaked_cache_evictions_total")
	if err != nil {
		return err
	}
	sp0, err := srv.counter("snaked_cache_spills_total")
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, results, err := resweepOps(e, srv, benches, n, tr)
	if err != nil {
		return err
	}
	ev1, err := srv.counter("snaked_cache_evictions_total")
	if err != nil {
		return err
	}
	sp1, err := srv.counter("snaked_cache_spills_total")
	if err != nil {
		return err
	}
	l.add(untraced)
	l.add(traced)

	var overhead, first, jobWall []float64
	var mem, total float64
	for _, r := range results {
		overhead = append(overhead, ms(r.latency)-jobWallMS(r)/svcWorkers)
		first = append(first, ms(r.first))
		for _, v := range r.lines {
			jobWall = append(jobWall, v.WallMS)
			total++
			if v.Source == "memory" {
				mem++
			}
		}
	}
	last := results[len(results)-1]
	view := service.SweepView{ID: "s0001", Done: true, Total: len(last.lines), Jobs: last.lines}
	enc, err := medianTimed(200, func() error { _, err := json.Marshal(view); return err })
	if err != nil {
		return err
	}
	l.set("service.overhead_ms", median(overhead), "ms")
	l.set("service.job_wall_ms", median(jobWall), "ms")
	l.set("service.first_line_ms", median(first), "ms")
	l.set("service.encode_us", 1000*enc, "us")
	l.set("cluster.mem_hit_ratio", mem/total, "share")
	l.set("cluster.evictions_per_op", (ev1-ev0)/float64(n), "count/op")
	l.set("cluster.spills_per_op", (sp1-sp0)/float64(n), "count/op")
	if own {
		l.set("trace.overhead", traced.busyS/untraced.busyS-1, "share")
		l.set("trace.unattributed_share", tr.unattributed(), "share")
		return tr.write("svc-resweep", e.seed)
	}
	return nil
}
