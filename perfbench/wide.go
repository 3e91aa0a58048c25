package main

import (
	"fmt"
	"runtime"
	"time"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// The wide shape: large kernels on a 16-SM machine at Parallelism 2, issued
// as snakesim -sms 16 -warps 48 -parallel 2 -pf snake issues them (a fresh
// engine per run, so engine construction and crew start-up are included).
// Here the barrier, drain, route, partition and merge phases carry the time;
// in the grid they are idle. Every traced run measures these phases on this
// shape; no measured workload runs it, because its barriers wait on the
// slower of the host's two cores and no run length the benchmark can afford
// kept its end-to-end numbers steady.
var (
	wideCfg     = config.Scaled(16, 48)
	wideScale   = workloads.Scale{CTAs: 96, WarpsPerCTA: 8, Iters: 12}
	wideBenches = []string{"lps", "nw", "srad"}
)

const (
	wideMech        = "snake"
	wideParallelism = 2
)

func wideID(bench string) string { return "wide/" + bench }

// wideRun is one sim.Run of k on the wide machine at parallelism par.
func wideRun(k *trace.Kernel, par int, prof *profiling.Phases) (*sim.Result, time.Duration, error) {
	f, err := harness.Mechanism(wideMech)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	res, err := sim.Run(k, sim.Options{Config: wideCfg, NewPrefetcher: f, Parallelism: par, PhaseProfile: prof})
	return res, time.Since(t), err
}

// tracedWide runs each wide kernel once untraced to warm the heap, then three
// times: at Parallelism 2 untraced, at Parallelism 2 under the PhaseProfile
// hook with spans, and at Parallelism 1 on the same machine shape for the
// serial-vs-parallel speedup.
func tracedWide(e *env, l *layers) error {
	st := workloads.NewStore()
	ks := map[string]*trace.Kernel{}
	for _, b := range wideBenches {
		k, err := st.Kernel(b, wideScale)
		if err != nil {
			return err
		}
		if _, _, err := wideRun(k, wideParallelism, nil); err != nil {
			return err
		}
		ks[b] = k
	}
	fmt.Printf("wide: nproc=%d GOMAXPROCS=%d parallelism=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), wideParallelism)
	tr := newTracer()
	prof := &profiling.Phases{}
	p := &pass{}
	var untraced, serial time.Duration
	var cycles int64
	for i, b := range wideBenches {
		res, d, err := wideRun(ks[b], wideParallelism, nil)
		untraced += d
		if err == nil {
			err = e.refs.checkStats(wideID(b), &res.Stats)
			cycles += res.Stats.Cycles
		}
		p.check(err)

		var before [profiling.NumPhases]int64
		for ph := range before {
			before[ph] = prof.Ns(profiling.Phase(ph))
		}
		id, end := tr.begin("sim.Run", 0, i)
		res, _, err = wideRun(ks[b], wideParallelism, prof)
		end()
		for ph := range before {
			tr.reported("sim."+profiling.Phase(ph).String(), id, i, time.Duration(prof.Ns(profiling.Phase(ph))-before[ph]))
		}
		if err == nil {
			err = e.refs.checkStats(wideID(b), &res.Stats)
		}
		p.check(err)

		res, d, err = wideRun(ks[b], 1, nil)
		serial += d
		if err == nil {
			err = e.refs.checkStats(wideID(b), &res.Stats)
		}
		p.check(err)
	}
	l.add(p)

	total := float64(prof.TotalNs())
	for _, s := range []struct {
		name string
		ph   profiling.Phase
	}{
		{"sim.drain_share", profiling.PhaseSerialDrain},
		{"sim.route_share", profiling.PhaseSerialRoute},
		{"sim.partition_share", profiling.PhaseMemPartitions},
		{"sim.shard_share", profiling.PhaseShards},
		{"sim.merge_share", profiling.PhaseMerge},
	} {
		l.set(s.name, float64(prof.Ns(s.ph))/total, "share")
	}
	l.set("sim.barriers_per_kcycle", 1000*float64(prof.Barriers())/float64(cycles), "1/kcycle")
	l.set("sim.ns_per_cycle", float64(untraced.Nanoseconds())/float64(cycles), "ns/cycle")
	// A speedup is only quoted where the workers can run on separate cores.
	if runtime.GOMAXPROCS(0) > 1 {
		l.set("sim.par_speedup", serial.Seconds()/untraced.Seconds(), "x")
	}
	return tr.write("wide", e.seed)
}
