// Command snakebench regenerates the paper's figures and tables.
//
// Usage:
//
//	snakebench -exp fig16          # one experiment
//	snakebench -exp fig16,fig17    # several
//	snakebench -all                # everything (can take several minutes)
//	snakebench -list               # list experiment IDs
//	snakebench -phases             # per-phase engine wall clock and barrier density
//
// Simulator throughput is a Go benchmark (BenchmarkSimulatorThroughput in
// the repository root); scripts/bench_ab.sh compares it between two commits
// on one machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"snake/internal/harness"
	"snake/internal/profiling"
)

func main() {
	var (
		exp        = flag.String("exp", "", "comma-separated experiment IDs (fig3..fig25, table1..table3)")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiment IDs")
		sms        = flag.Int("sms", 4, "number of SMs")
		warps      = flag.Int("warps", 64, "warp slots per SM")
		ctas       = flag.Int("ctas", 0, "CTA count (0: default scale)")
		iters      = flag.Int("iters", 0, "loop-depth multiplier (0: default scale)")
		format     = flag.String("format", "text", "output format: text, csv, json")
		phases     = flag.Bool("phases", false, "report the engine's per-phase wall clock")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(harness.ExperimentIDs(), " "))
		return
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snakebench:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *phases {
		if err := reportPhases(); err != nil {
			fmt.Fprintln(os.Stderr, "snakebench:", err)
			os.Exit(1)
		}
		return
	}
	ids := harness.ExperimentIDs()
	if !*all {
		if *exp == "" {
			fmt.Fprintln(os.Stderr, "snakebench: pass -exp <ids> or -all (see -list)")
			os.Exit(2)
		}
		ids = strings.Split(*exp, ",")
	}

	r := newRunner(*sms, *warps, *ctas, *iters)
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := harness.Experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "snakebench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		start := time.Now()
		t, err := e(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snakebench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := t.Write(os.Stdout, *format); err != nil {
			fmt.Fprintf(os.Stderr, "snakebench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *format == "text" {
			fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
	}
}

func newRunner(sms, warps, ctas, iters int) *harness.Runner {
	r := harness.NewRunner()
	if sms > 0 && warps > 0 {
		cfg := r.Cfg
		cfg.NumSM = sms
		cfg.MaxWarpsPerSM = warps
		cfg.ThreadsPerSM = warps * cfg.WarpSize
		r.Cfg = cfg
	}
	sc := r.Scale
	if ctas > 0 {
		sc.CTAs = ctas
	}
	if iters > 0 {
		sc.Iters = iters
	}
	r.Scale = sc
	return r
}
