// Command perfbench is the repository's benchmark: the Fig. 18 grid through
// harness.Runner, and cold and re-sweep traffic through an in-process snaked,
// every op's output checked against recorded reference digests.
//
// Run it from the root of a checkout through the wrapper that builds it:
//
//	python3 perfbench/run.py --workload grid-cells --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 a separate traced pass reports the
// per-layer metrics instead. README.md maps each layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last stdout line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every pass needs: the seed, the run length its op counts are
// sized for, the references, and a scratch directory inside the checkout.
type env struct {
	seed    int64
	seconds int
	refs    refs
	work    string
}

// pass is one measured run of a workload's fixed op list. The list depends
// only on the seed, never on how fast the ops complete, so a faster program
// serves the same requests and retains the same state.
type pass struct {
	setupS float64   // fastest set-up time
	lat    []float64 // per-op latency, ms
	// busyS is the op list's time with every op slot busy: summed latency
	// over the ops kept in flight. It leaves out the drain tail, whose
	// length depends on which op the seed happens to put last.
	busyS   float64
	checked int // outputs compared against a reference
	failed  int // outputs that differed or never arrived
	rounds  int // rounds folded into lat
}

func (p *pass) check(err error) {
	p.checked++
	if err != nil {
		p.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// The host's speed swings by 10-70% for seconds to minutes at a time, as
// other tenants load its cores, while its fastest moments move much less. So
// a measured pass runs its op list in rounds spread over the run, each round
// starting with a set-up, and keeps each op's fastest round and the fastest
// set-up: the numbers then describe the program more than the moment it ran
// in. A change that slows an op or the set-up slows every round of it.

// rounds is how many rounds fit a --seconds run, given one round's wall
// time on a 2-core host; never fewer than two.
func rounds(seconds int, roundS float64) int {
	return max(2, int(math.Round(float64(seconds)/roundS)))
}

// fold adds one round of the op list to p: each op keeps its fastest
// latency, and every output checked counts.
func (p *pass) fold(r *pass) {
	if p.lat == nil {
		p.lat = append([]float64(nil), r.lat...)
	} else {
		for i, v := range r.lat {
			p.lat[i] = min(p.lat[i], v)
		}
	}
	p.checked += r.checked
	p.failed += r.failed
	p.rounds++
}

// setup records one round's set-up seconds, keeping the fastest.
func (p *pass) setup(s float64) {
	if p.setupS == 0 || s < p.setupS {
		p.setupS = s
	}
}

// busy sets the busy time from the latencies, with inflight ops kept in
// flight.
func (p *pass) busy(inflight int) {
	p.busyS = sum(p.lat) / 1000 / float64(inflight)
}

// workload is one traffic mix: measure runs the end-to-end pass, traced the
// separate per-layer pass.
type workload struct {
	name    string
	measure func(*env) (*pass, error)
	traced  func(*env, *layers) error
}

var benchWorkloads = []workload{
	{"grid-cells", measureGrid, tracedGrid},
	{"svc-cold", measureCold, tracedCold},
	{"svc-resweep", measureResweep, tracedResweep},
}

func main() { os.Exit(run()) }

func run() int {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	wl := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Int("seconds", 30, "run length the op counts are sized for")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	rec := flag.Bool("record", false, "re-simulate every reference cell, rewrite "+refsPath+" and exit")
	flag.Parse()
	if *rec {
		if err := record(refsPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *wl {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	r, err := loadRefs(refsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, refs: r,
		work: filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))}
	defer os.RemoveAll(e.work)

	var rep *report
	if *traced == 1 {
		rep, err = tracedRun(w, e)
	} else {
		rep, err = endToEnd(w, e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for k, m := range rep.Metrics {
		// A pass whose every op failed divides by zero; JSON has no NaN.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Metrics[k] = metric{0, m.Unit}
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// endToEnd runs the untraced pass and reports every end-to-end metric.
func endToEnd(w *workload, e *env) (*report, error) {
	p, err := w.measure(e)
	if err != nil {
		return nil, err
	}
	p50, err := quantile(p.lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := quantile(p.lat, 0.9)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d ops (fastest of %d rounds) in %.2f busy s, setup %.3f s\n",
		w.name, len(p.lat), p.rounds, p.busyS, p.setupS)
	return &report{
		Correct:   p.failed == 0,
		Attempted: p.checked,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":    {p.setupS, "s"},
			"ops_per_s":  {float64(len(p.lat)) / p.busyS, "1/s"},
			"lat_p50_ms": {p50, "ms"},
			"lat_p90_ms": {p90, "ms"},
			"max_rss_mb": {maxRSSMB(), "MB"},
		},
	}, nil
}

// layers collects per-layer metrics. The first value set for a name wins, so
// the traced workload's own pass takes precedence over the reduced passes
// that fill in the layers it does not exercise.
type layers struct {
	m       map[string]metric
	checked int
	failed  int
}

func (l *layers) set(name string, v float64, unit string) {
	if _, ok := l.m[name]; !ok {
		l.m[name] = metric{v, unit}
	}
}

func (l *layers) has(name string) bool { _, ok := l.m[name]; return ok }

func (l *layers) add(p *pass) {
	l.checked += p.checked
	l.failed += p.failed
}

// tracedRun runs the workload's traced pass, then reduced passes of the
// workloads that exercise the layers this one does not, the wide parallel
// kernels, and standalone probes of single public calls, so every per-layer
// metric is reported.
func tracedRun(w *workload, e *env) (*report, error) {
	l := &layers{m: map[string]metric{}}
	steps := []struct {
		unless string
		run    func(*env, *layers) error
	}{
		{"", w.traced},
		{"model.snake_ipc_gain", reducedGrid},
		{"", tracedWide},
		{"service.encode_us", reducedResweep},
		{"", probeHarness},
		{"", probeStore},
	}
	for _, s := range steps {
		if s.unless != "" && l.has(s.unless) {
			continue
		}
		if err := s.run(e, l); err != nil {
			return nil, err
		}
	}
	return &report{Correct: l.failed == 0, Attempted: l.checked, Failed: l.failed, Metrics: l.m}, nil
}

// tracer records spans around the public calls a traced pass makes. Spans
// stay in memory and are written once, when the pass ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Reported marks a duration the program reported about itself
	// (PhaseProfile, RunView.WallMS) rather than one timed here.
	Reported bool `json:"reported,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; the returned func closes it.
func (t *tracer) begin(name string, parent, op int) (int, func()) {
	start := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: us(start.Sub(t.t0))})
	t.mu.Unlock()
	return id, func() {
		d := time.Since(start)
		t.mu.Lock()
		t.spans[id-1].DurUS = us(d)
		t.mu.Unlock()
	}
}

// reported adds a child span whose duration the program reported.
func (t *tracer) reported(name string, parent, op int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartUS: t.spans[parent-1].StartUS, DurUS: us(d), Reported: true})
}

// unattributed is the share of the op (root) spans' time that no child span
// covers: the time no layer's public call or self-report accounts for.
func (t *tracer) unattributed() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 && t.spans[s.Parent-1].Parent == 0 {
			covered[s.Parent] += s.DurUS
		}
	}
	var total, cov float64
	for _, s := range t.spans {
		if s.Parent == 0 {
			total += s.DurUS
			cov += min(covered[s.ID], s.DurUS)
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - cov/total
}

// write stores the spans as JSON under the checkout's build directory.
func (t *tracer) write(name string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle collects the garbage earlier set-up left behind, so neither the
// next set-up nor the measured pass starts with a heap that depends on when
// the collector last ran.
func settle() { runtime.GC() }

// medianTimed runs f n times and returns the median duration in ms.
func medianTimed(n int, f func() error) (float64, error) {
	d := make([]float64, n)
	for i := range d {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d[i] = ms(time.Since(t))
	}
	return median(d), nil
}
