// Command snakesweep sweeps one Snake parameter across the benchmark suite
// and prints IPC-vs-baseline, coverage and accuracy per point — the tool
// behind the §5.4 sensitivity analyses and the ablation benchmarks.
//
// Usage:
//
//	snakesweep -knob chaindepth -values 1,2,4,8
//	snakesweep -knob tailentries -values 3,5,10,20 -bench lps,hotspot
//	snakesweep -knob throttlecycles -values 10,50,200 -format csv
//	snakesweep -knob chainpersist -values 0,1 -app warmup
//	snakesweep -knob tenant0sms -values 1,2,3 -app cotenant
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/profiling"
	"snake/internal/workloads"
)

// knobs maps sweepable parameter names to setters.
var knobs = map[string]func(*core.Config, int){
	"chaindepth":     func(c *core.Config, v int) { c.ChainDepth = v },
	"tailentries":    func(c *core.Config, v int) { c.TailEntries = v },
	"headrows":       func(c *core.Config, v int) { c.HeadRows = v },
	"headslots":      func(c *core.Config, v int) { c.HeadSlotsPerRow = v },
	"promotewarps":   func(c *core.Config, v int) { c.PromoteWarps = v },
	"intradegree":    func(c *core.Config, v int) { c.IntraDegree = v },
	"interwarpdeg":   func(c *core.Config, v int) { c.InterWarpDegree = v },
	"throttlecycles": func(c *core.Config, v int) { c.ThrottleCycles = v },
	"bulkwarps":      func(c *core.Config, v int) { c.BulkPromotionWarps = v },
	"maxrequests":    func(c *core.Config, v int) { c.MaxRequestsPerAccess = v },
}

// runShape is the launch-layer run configuration the run-shape knobs mutate
// (versus knobs, which mutate Snake's core.Config).
type runShape struct {
	chain bool // persist chain tables across kernel-launch boundaries
	split int  // tenant-0 SM share for partitioned apps
}

// runKnobs maps application-level sweep parameters to runShape setters.
// These knobs require -app: they shape the launch schedule, not the
// prefetcher.
var runKnobs = map[string]func(*runShape, int){
	"chainpersist": func(s *runShape, v int) { s.chain = v != 0 },
	"tenant0sms":   func(s *runShape, v int) { s.split = v },
}

// knobNames returns all sweepable knob names — core.Config knobs and
// run-shape knobs — sorted.
func knobNames() []string {
	names := make([]string, 0, len(knobs)+len(runKnobs))
	for k := range knobs {
		names = append(names, k)
	}
	for k := range runKnobs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		knob       = flag.String("knob", "chaindepth", "parameter to sweep (see -listknobs)")
		values     = flag.String("values", "1,2,4,8", "comma-separated integer values")
		bench      = flag.String("bench", "", "comma-separated benchmarks (default: all)")
		app        = flag.String("app", "", "application workload for run-shape knobs (chainpersist, tenant0sms)")
		format     = flag.String("format", "text", "output format: text, csv, json")
		lk         = flag.Bool("listknobs", false, "list sweepable knobs")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *lk {
		fmt.Println(strings.Join(knobNames(), " "))
		return
	}
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()
	set, coreKnob := knobs[*knob]
	rset, shapeKnob := runKnobs[*knob]
	if !coreKnob && !shapeKnob {
		fatal(fmt.Errorf("unknown knob %q (see -listknobs)", *knob))
	}
	var vals []int
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatal(fmt.Errorf("bad value %q: %w", s, err))
		}
		vals = append(vals, v)
	}
	benches := workloads.Names()
	if *bench != "" {
		benches = strings.Split(*bench, ",")
	}

	r := harness.NewRunner()
	if shapeKnob {
		if *app == "" {
			fatal(fmt.Errorf("knob %q shapes the launch schedule and needs -app (see -listknobs)", *knob))
		}
		if err := sweepApp(r, *app, *knob, rset, vals, *format); err != nil {
			fatal(err)
		}
		return
	}
	if *app != "" {
		fatal(fmt.Errorf("knob %q sweeps Snake's tables over benchmarks; app sweeps support %v", *knob, runKnobNames()))
	}
	t := &harness.Table{
		ID:      "sweep-" + *knob,
		Title:   fmt.Sprintf("Snake sensitivity to %s (means over %d benchmarks)", *knob, len(benches)),
		Columns: []string{*knob, "ipc-vs-base", "coverage", "accuracy"},
	}
	for _, v := range vals {
		cfg := core.Defaults()
		set(&cfg, v)
		var ipc, cov, acc float64
		for _, b := range benches {
			base, err := r.Run(b, "baseline")
			if err != nil {
				fatal(err)
			}
			st, err := r.SnakeVariant(b, fmt.Sprintf("sweep-%s-%d", *knob, v), cfg)
			if err != nil {
				fatal(err)
			}
			ipc += st.IPC() / base.IPC()
			cov += st.Coverage()
			acc += st.Accuracy()
		}
		n := float64(len(benches))
		t.AddRow(strconv.Itoa(v), ipc/n, cov/n, acc/n)
	}
	if err := t.Write(os.Stdout, *format); err != nil {
		fatal(err)
	}
}

// runKnobNames returns just the run-shape knob names, sorted.
func runKnobNames() []string {
	names := make([]string, 0, len(runKnobs))
	for k := range runKnobs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// sweepApp sweeps a run-shape knob over one application: Snake versus the
// no-prefetch baseline at each knob value.
func sweepApp(r *harness.Runner, app, knob string, set func(*runShape, int), vals []int, format string) error {
	t := &harness.Table{
		ID:      "sweep-" + knob,
		Title:   fmt.Sprintf("Snake sensitivity to %s (app %s)", knob, app),
		Columns: []string{knob, "ipc-vs-base", "coverage", "accuracy"},
	}
	for _, v := range vals {
		var shape runShape
		set(&shape, v)
		r.Split = shape.split
		base, err := r.RunApp(app, "baseline", shape.chain)
		if err != nil {
			return err
		}
		st, err := r.RunApp(app, "snake", shape.chain)
		if err != nil {
			return err
		}
		t.AddRow(strconv.Itoa(v), st.Stats.IPC()/base.Stats.IPC(), st.Stats.Coverage(), st.Stats.Accuracy())
	}
	return t.Write(os.Stdout, format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snakesweep:", err)
	os.Exit(1)
}
