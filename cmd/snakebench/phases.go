package main

import (
	"context"
	"fmt"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/profiling"
	"snake/internal/workloads"
)

// reportPhases implements snakebench -phases: per-phase engine wall clock
// for lps, mum and nw under Snake on the mid-scale 8-SM machine, one run
// each through Runner.Simulate. The drain and merge columns are the
// per-epoch bookkeeping around the partition and shard ticks, and the share
// column is their fraction of the total, with merge% broken out.
// The epochs and cyc/epoch columns show how far bounded-slack ticking
// stretches each epoch.
func reportPhases() error {
	fmt.Printf("%-6s %12s %12s %12s %10s %12s %8s %8s %10s %10s\n",
		"bench", "drain", "partitions", "shards", "merge", "total", "share", "merge%", "epochs", "cyc/epoch")
	r := &harness.Runner{Cfg: config.Scaled(8, 48), Scale: workloads.Scale{CTAs: 24, WarpsPerCTA: 8, Iters: 8}}
	for _, bench := range []string{"lps", "mum", "nw"} {
		var prof profiling.Phases
		r.PhaseProfile = &prof
		if _, err := r.Simulate(context.Background(), r.Key(bench, "snake")); err != nil {
			return err
		}
		fmt.Printf("%-6s %11dµs %11dµs %11dµs %9dµs %11dµs %7.1f%% %7.2f%% %10d %10.2f\n",
			bench,
			prof.Ns(profiling.PhaseSerialDrain)/1e3,
			prof.Ns(profiling.PhaseMemPartitions)/1e3,
			prof.Ns(profiling.PhaseShards)/1e3,
			prof.Ns(profiling.PhaseMerge)/1e3,
			prof.TotalNs()/1e3,
			100*prof.SerialShare(),
			100*prof.MergeShare(),
			prof.Barriers(),
			prof.CyclesPerBarrier())
	}
	return nil
}
