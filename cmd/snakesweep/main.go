// Command snakesweep sweeps one Snake parameter across the benchmark suite
// and prints IPC-vs-baseline, coverage and accuracy per point — the tool
// behind the §5.4 sensitivity analyses and the ablation benchmarks.
//
// Usage:
//
//	snakesweep -knob chaindepth -values 1,2,4,8
//	snakesweep -knob tailentries -values 3,5,10,20 -bench lps,hotspot
//	snakesweep -knob throttlecycles -values 10,50,200 -format csv
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

// knobNames returns all sweepable knob names, sorted.
func knobNames() []string {
	names := make([]string, 0, len(knobs))
	for k := range knobs {
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
	set, ok := knobs[*knob]
	if !ok {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snakesweep:", err)
	os.Exit(1)
}
