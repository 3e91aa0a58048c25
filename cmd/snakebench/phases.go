package main

import (
	"fmt"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/workloads"
)

// reportPhases implements snakebench -phases: per-phase engine wall clock
// and serial share for lps, mum and nw on the mid-scale 8-SM machine, at
// serial execution and at the requested parallelism. This is the Amdahl
// report: the drain, route and merge columns are the part of the cycle no
// amount of -parallel can compress, and the share column is their fraction
// of the total — with route% and merge% broken out so each serial phase's
// trajectory is visible on its own. The barriers and cyc/barrier columns show
// how well bounded-slack ticking amortizes the wave barrier (honors -slack).
func reportPhases(parallel, slack int) error {
	if parallel <= 1 {
		parallel = 4
	}
	fmt.Printf("%-6s %3s %12s %10s %12s %12s %10s %12s %8s %8s %8s %10s %12s\n",
		"bench", "P", "drain", "route", "partitions", "shards", "merge", "total", "share", "route%", "merge%", "barriers", "cyc/barrier")
	for _, bench := range []string{"lps", "mum", "nw"} {
		k, err := workloads.Shared().Kernel(bench, workloads.Scale{CTAs: 24, WarpsPerCTA: 8, Iters: 8})
		if err != nil {
			return err
		}
		cfg := config.Scaled(8, 48)
		for _, p := range []int{1, parallel} {
			var prof profiling.Phases
			_, err := sim.Run(k, sim.Options{
				Config:        cfg,
				NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
				Parallelism:   p,
				SlackWindow:   slack,
				PhaseProfile:  &prof,
				// Profile the real multi-worker split even where GOMAXPROCS
				// would clamp it away.
				ForceParallelism: p > 1,
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-6s %3d %11dµs %9dµs %11dµs %11dµs %9dµs %11dµs %7.1f%% %7.2f%% %7.2f%% %10d %12.2f\n",
				bench, p,
				prof.Ns(profiling.PhaseSerialDrain)/1e3,
				prof.Ns(profiling.PhaseSerialRoute)/1e3,
				prof.Ns(profiling.PhaseMemPartitions)/1e3,
				prof.Ns(profiling.PhaseShards)/1e3,
				prof.Ns(profiling.PhaseMerge)/1e3,
				prof.TotalNs()/1e3,
				100*prof.SerialShare(),
				100*prof.RouteShare(),
				100*prof.MergeShare(),
				prof.Barriers(),
				prof.CyclesPerBarrier())
		}
	}
	return nil
}
