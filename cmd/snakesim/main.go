// Command snakesim runs one benchmark under one prefetching mechanism and
// prints the resulting statistics.
//
// Usage:
//
//	snakesim -bench lps -pf snake
//	snakesim -bench lib -pf baseline -sms 4 -warps 32 -ctas 48 -iters 12
package main

import (
	"flag"
	"fmt"
	"os"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/workloads"
)

func main() {
	var (
		bench      = flag.String("bench", "lps", "benchmark name (see -list)")
		pf         = flag.String("pf", "baseline", "prefetching mechanism (see -list)")
		shape      = harness.ShapeFlags(flag.CommandLine)
		list       = flag.Bool("list", false, "list benchmarks and mechanisms")
		slackaudit = flag.Bool("slackaudit", false, "print the config's slack-bound derivation and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *list {
		fmt.Println("benchmarks:", workloads.Names())
		fmt.Println("mechanisms:", harness.MechanismNames())
		return
	}

	gpu, sc, err := shape()
	if err != nil {
		fatal(err)
	}
	if *slackaudit {
		printSlackAudit(gpu)
		return
	}

	factory, err := harness.Mechanism(*pf)
	if err != nil {
		fatal(err)
	}
	k, err := workloads.Shared().Kernel(*bench, sc)
	if err != nil {
		fatal(err)
	}
	res, err := sim.Run(k, sim.Options{
		Config:        gpu,
		NewPrefetcher: factory,
	})
	if err != nil {
		fatal(err)
	}
	s, slack := &res.Stats, res.Slack
	fmt.Printf("benchmark        %s\n", k.Name)
	fmt.Printf("mechanism        %s\n", *pf)
	fmt.Printf("slack            horizon=%d window=%d turnaround=%d (bound by %s)\n",
		slack.Horizon, slack.Window, slack.Turnaround, slack.BindingTerm)
	fmt.Printf("cycles           %d\n", s.Cycles)
	fmt.Printf("instructions     %d\n", s.Insts)
	fmt.Printf("loads            %d\n", s.Loads)
	fmt.Printf("IPC              %.4f\n", s.IPC())
	fmt.Printf("L1 hit rate      %.1f%%\n", 100*s.L1HitRate())
	fmt.Printf("resv-fail rate   %.1f%%\n", 100*s.ReservationFailRate())
	fmt.Printf("bw utilization   %.1f%%\n", 100*s.BandwidthUtilization())
	fmt.Printf("mem-stall frac   %.1f%%\n", 100*s.MemStallFraction())
	fmt.Printf("coverage         %.1f%%\n", 100*s.Coverage())
	fmt.Printf("accuracy         %.1f%%\n", 100*s.Accuracy())
	fmt.Printf("pf issued        %d (useful %d, late %d, early-evicted %d, unused %d, dropped %d)\n",
		s.Pf.Issued, s.Pf.UsefulTimely, s.Pf.UsefulLate, s.Pf.EarlyEvicted, s.Pf.Unused, s.Pf.Dropped)
	fmt.Printf("L2 accesses      %d (hits %d, misses %d, in-flight merges %d)\n",
		s.L2Hits+s.L2Misses+s.L2Merges, s.L2Hits, s.L2Misses, s.L2Merges)
	fmt.Printf("dram reads       %d (row hits %d, row misses %d)\n", s.DRAMReads, s.DRAMRowHits, s.DRAMRowMisses)
	fmt.Printf("resfail causes   missq=%d mshr=%d victim=%d\n", s.ResFailMissQueue, s.ResFailMSHR, s.ResFailVictim)
}

// printSlackAudit prints the config's slack-bound derivation: every
// cross-unit latency term the audit considers, which one binds, and the
// resulting horizon and turnaround the engine will run with.
func printSlackAudit(cfg config.GPU) {
	a := cfg.SlackAudit()
	lim := a.Limiting()
	fmt.Printf("slack audit (bound = min cross-unit latency)\n")
	for _, t := range a.Terms {
		mark := " "
		if t.Name == lim.Name && t.Latency == lim.Latency {
			mark = "*"
		}
		fmt.Printf("  %s %-12s %6d  %s\n", mark, t.Name, t.Latency, t.Why)
	}
	fmt.Printf("bound            %d cycles (binding term: %s)\n", a.Bound, lim.Name)
	fmt.Printf("epoch horizon    %d cycles (miss-queue and store visibility delay)\n", a.Bound)
	fmt.Printf("turnaround       %d cycles (modeled injection residency, CTA redispatch)\n",
		min(a.Bound, sim.TurnaroundCap))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snakesim:", err)
	os.Exit(1)
}
