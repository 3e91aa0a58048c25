// Command snakesim runs one benchmark — or one multi-kernel application —
// under one prefetching mechanism and prints the resulting statistics.
//
// Usage:
//
//	snakesim -bench lps -pf snake
//	snakesim -bench lib -pf baseline -sms 4 -warps 32 -ctas 48 -iters 12
//	snakesim -app warmup -pf snake -chain      # multi-kernel launch graph
//	snakesim -app cotenant -pf snake -split 2  # two tenants, SMs 0-1 vs rest
package main

import (
	"flag"
	"fmt"
	"os"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/workloads"
)

func main() {
	var (
		bench      = flag.String("bench", "lps", "benchmark name (see -list)")
		app        = flag.String("app", "", "application workload instead of -bench (see -list)")
		chain      = flag.Bool("chain", false, "persist prefetcher chain tables across kernel launches (-app only)")
		split      = flag.Int("split", 0, "tenant-0 SM share for partitioned apps (0: half)")
		pf         = flag.String("pf", "baseline", "prefetching mechanism (see -list)")
		sms        = flag.Int("sms", 4, "number of SMs")
		warps      = flag.Int("warps", 32, "warp slots per SM")
		ctas       = flag.Int("ctas", 0, "CTA count (0: default scale)")
		wpc        = flag.Int("wpc", 0, "warps per CTA (0: default scale)")
		iters      = flag.Int("iters", 0, "loop-depth multiplier (0: default scale)")
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
		fmt.Println("apps:", workloads.AppNames())
		fmt.Println("mechanisms:", harness.MechanismNames())
		return
	}

	if *slackaudit {
		printSlackAudit(config.Scaled(*sms, *warps))
		return
	}

	sc := workloads.Scale{CTAs: *ctas, WarpsPerCTA: *wpc, Iters: *iters}
	factory, err := harness.Mechanism(*pf)
	if err != nil {
		fatal(err)
	}
	opt := sim.Options{
		Config:        config.Scaled(*sms, *warps),
		NewPrefetcher: factory,
	}

	var s *stats.Sim
	var appRes *sim.AppResult
	var slackRes sim.SlackInfo
	name := *bench
	if *app != "" {
		a, _, err := workloads.Shared().App(*app, sc, *sms, *split)
		if err != nil {
			fatal(err)
		}
		opt.ChainPersistence = *chain
		appRes, err = sim.RunApp(a, opt)
		if err != nil {
			fatal(err)
		}
		s = &appRes.Stats
		slackRes = appRes.Slack
		name = fmt.Sprintf("%s (%d launches, chain=%v)", *app, len(a.Launches), *chain)
	} else {
		k, err := workloads.Shared().Kernel(*bench, sc)
		if err != nil {
			fatal(err)
		}
		res, err := sim.Run(k, opt)
		if err != nil {
			fatal(err)
		}
		s = &res.Stats
		slackRes = res.Slack
		name = k.Name
	}
	fmt.Printf("benchmark        %s\n", name)
	fmt.Printf("mechanism        %s\n", *pf)
	fmt.Printf("slack            horizon=%d window=%d turnaround=%d (bound by %s)\n",
		slackRes.Horizon, slackRes.Window, slackRes.Turnaround, slackRes.BindingTerm)
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
	if appRes != nil {
		fmt.Printf("launches:\n")
		fmt.Printf("  %-3s %-10s %-6s %12s %12s %12s %10s %8s\n",
			"idx", "kernel", "tenant", "start", "retire", "insts", "ipc", "cov")
		for _, l := range appRes.Launches {
			fmt.Printf("  %-3d %-10s %-6d %12d %12d %12d %10.4f %7.1f%%\n",
				l.Index, l.Kernel, l.Tenant, l.StartCycle, l.RetireCycle,
				l.Stats.Insts, l.Stats.IPC(), 100*l.Stats.Coverage())
		}
		if len(appRes.Tenants) > 1 {
			fmt.Printf("tenants:\n")
			fmt.Printf("  %-3s %-8s %12s %10s %8s %8s\n",
				"id", "launches", "insts", "ipc", "cov", "l1hit")
			for _, tn := range appRes.Tenants {
				fmt.Printf("  %-3d %-8d %12d %10.4f %7.1f%% %7.1f%%\n",
					tn.ID, tn.Launches, tn.Stats.Insts, tn.Stats.IPC(),
					100*tn.Stats.Coverage(), 100*tn.Stats.L1HitRate())
			}
		}
	}
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
