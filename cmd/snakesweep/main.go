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

// knob is one sweepable Snake parameter: its setter and the values the
// canonical config keeps as set.
type knob struct {
	set      func(*core.Config, int)
	min, max int
}

// knobs maps sweepable parameter names to knobs.
var knobs = map[string]knob{
	"chaindepth":     {func(c *core.Config, v int) { c.ChainDepth = v }, 1, core.LimitChainDepth},
	"tailentries":    {func(c *core.Config, v int) { c.TailEntries = v }, 1, core.LimitTailEntries},
	"headrows":       {func(c *core.Config, v int) { c.HeadRows = v }, 1, core.LimitHeadRows},
	"headslots":      {func(c *core.Config, v int) { c.HeadSlotsPerRow = v }, 1, core.LimitHeadSlotsPerRow},
	"promotewarps":   {func(c *core.Config, v int) { c.PromoteWarps = v }, 1, core.LimitPromoteWarps},
	"intradegree":    {func(c *core.Config, v int) { c.IntraDegree = v }, 1, core.LimitDegree},
	"interwarpdeg":   {func(c *core.Config, v int) { c.InterWarpDegree = v }, 0, core.LimitDegree},
	"throttlecycles": {func(c *core.Config, v int) { c.ThrottleCycles = v }, 1, core.LimitThrottleCycles},
	"bulkwarps":      {func(c *core.Config, v int) { c.BulkPromotionWarps = v }, 0, core.LimitBulkPromotionWarps},
	"maxrequests":    {func(c *core.Config, v int) { c.MaxRequestsPerAccess = v }, 1, core.LimitMaxRequestsPerAccess},
}

// config returns the default Snake config with the knob set to v. A value
// core.Config.Validate rejects, or one the canonical config replaces with
// its default, is an error: its row would be labelled v but run another
// value.
func (k knob) config(name string, v int) (core.Config, error) {
	cfg := core.Defaults()
	k.set(&cfg, v)
	if cfg.Validate() != nil || cfg.WithDefaults() != cfg {
		return cfg, fmt.Errorf("knob %s: value %d outside its valid range [%d, %d]", name, v, k.min, k.max)
	}
	return cfg, nil
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
	k, ok := knobs[*knob]
	if !ok {
		fatal(fmt.Errorf("unknown knob %q (see -listknobs)", *knob))
	}
	var vals []int
	var cfgs []core.Config
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatal(fmt.Errorf("bad value %q: %w", s, err))
		}
		cfg, err := k.config(*knob, v)
		if err != nil {
			fatal(err)
		}
		vals, cfgs = append(vals, v), append(cfgs, cfg)
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
	for i, v := range vals {
		var ipc, cov, acc float64
		for _, b := range benches {
			base, err := r.Run(b, "baseline")
			if err != nil {
				fatal(err)
			}
			st, err := r.SnakeVariant(b, cfgs[i])
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
