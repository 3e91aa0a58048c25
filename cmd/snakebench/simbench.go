package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// simBenchEntry is one row of BENCH_sim.json: the measured throughput of
// sim.Run on one workload at a given shard parallelism.
type simBenchEntry struct {
	Name        string `json:"name"`
	Bench       string `json:"bench"`
	Parallelism int    `json:"parallelism,omitempty"`
	// App marks launch-layer cases: Bench names an application from the
	// workloads app registry and the op under timing is sim.RunApp (the
	// whole launch graph), not sim.Run of one kernel.
	App   bool `json:"app,omitempty"`
	Chain bool `json:"chain,omitempty"`
	// Reuse marks pooled-engine cases (the op is RunTagged on a warmed
	// persistent Engine); their allocs/op is the steady-state residual.
	Reuse bool `json:"reuse,omitempty"`
	// BarrierOverheadOnly marks parallel rows measured on a machine whose
	// GOMAXPROCS cannot host the workers (forced multi-worker execution on
	// one core): the row still exercises the real barrier/scatter machinery —
	// its allocs/op is fully meaningful — but its wall clock shows barrier
	// overhead, never parallel speedup, so speedup- and share-based gates
	// don't apply.
	BarrierOverheadOnly bool    `json:"barrier_overhead_only,omitempty"`
	NsPerOp             int64   `json:"ns_per_op"`
	CyclesPerSec        float64 `json:"cycles_per_sec"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
	BytesPerOp          int64   `json:"bytes_per_op"`
}

// simBenchFile is the machine-readable perf trajectory CI uploads per PR.
type simBenchFile struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	// MaxProcs records the measuring machine's GOMAXPROCS: parallel entries
	// are only meaningful relative to it (a 1-core machine cannot show
	// parallel speedup, however correct the executor).
	MaxProcs int             `json:"max_procs"`
	Entries  []simBenchEntry `json:"entries"`
	// ParallelSpeedup is serial ns/op ÷ parallel ns/op per parallel case.
	ParallelSpeedup map[string]float64 `json:"parallel_speedup,omitempty"`
	// PhaseNs breaks one profiled run of each parallel case into the
	// engine's wall-clock phases (nanoseconds, keyed by phase name); the
	// profiled run is separate from the timed ops above, so profiling
	// overhead never pollutes ns/op.
	PhaseNs map[string]map[string]int64 `json:"phase_ns,omitempty"`
	// SerialShare is the serial fraction (drain + route + merge over total)
	// of each profiled run. The regression guard watches the P>1 cases: the
	// serial share is what bounds parallel speedup (Amdahl), so letting it
	// grow silently would erode the executor without any single ns/op case
	// tripping.
	SerialShare map[string]float64 `json:"serial_share,omitempty"`
	// RouteShare and MergeShare split the serial share into its gated
	// components: the route phase (the per-epoch prefix-sum over partition
	// ingress rings) and the merge phase (heap pushes, store scatter
	// bookkeeping, CTA maturation). Together they are the old monolithic
	// serial phase minus the drain, and genuinely parallel runs gate their
	// sum absolutely (routeMergeShareMax); the drain rides the relative
	// serial-share guard.
	RouteShare map[string]float64 `json:"route_share,omitempty"`
	MergeShare map[string]float64 `json:"merge_share,omitempty"`
	// BarriersPerKcycle is barrier waves per thousand simulated cycles for
	// each profiled run at -slack auto. The regression guard watches it
	// alongside SerialShare: bounded-slack ticking amortizes the per-cycle
	// barrier, and a change that silently shortens epochs (more barriers for
	// the same cycles) would re-serialize the executor without moving any
	// ns/op case past its tolerance.
	BarriersPerKcycle map[string]float64 `json:"barriers_per_kcycle,omitempty"`
}

// simBenchCase is one measured configuration. Serial cases run the standard
// 4×64 experiment machine; parallel cases run a medium-scale 8-SM machine
// (more CTAs, wider GPU) where per-cycle shard work is large enough for the
// barrier overhead to amortize — the configuration the -parallel flag
// targets in practice. Reuse cases re-run their base case on a persistent
// warmed sim.Engine, the steady-state shape of sweep traffic through the
// harness engine pool: their allocs/op and bytes/op measure only the per-run
// residual, not arena construction. App cases time sim.RunApp on a whole
// launch graph — the multi-kernel case exercises the launch scheduler plus
// cross-launch chain persistence, the co-tenant case exercises partitioned
// concurrent launches — so launch-layer overhead shows up as its own row
// instead of hiding inside kernel cases.
type simBenchCase struct {
	name        string
	bench       string
	parallelism int // 0: serial engine (Parallelism 1)
	midScale    bool
	reuse       bool
	app         bool // bench names an application; op is sim.RunApp
	chain       bool // persist chain tables across launches (app cases)
}

var simBenchCases = []simBenchCase{
	{name: "lps", bench: "lps"},
	{name: "mum", bench: "mum"},
	{name: "nw", bench: "nw"},
	{name: "lps-par1", bench: "lps", midScale: true, parallelism: 1},
	{name: "lps-par4", bench: "lps", midScale: true, parallelism: 4},
	{name: "mum-par1", bench: "mum", midScale: true, parallelism: 1},
	{name: "mum-par4", bench: "mum", midScale: true, parallelism: 4},
	{name: "nw-par1", bench: "nw", midScale: true, parallelism: 1},
	{name: "nw-par4", bench: "nw", midScale: true, parallelism: 4},
	{name: "lps-reuse", bench: "lps", reuse: true},
	{name: "mum-reuse", bench: "mum", reuse: true},
	{name: "nw-reuse", bench: "nw", reuse: true},
	// Pooled parallel rows: the allocation-flat claim. A warmed engine
	// re-running under a 4-worker crew must stay at the serial-pooled
	// steady state (par1-reuse is the reference; checkParallelAllocsFlat
	// gates the ratio on every bench run, baseline or not).
	{name: "lps-par1-reuse", bench: "lps", midScale: true, parallelism: 1, reuse: true},
	{name: "lps-par4-reuse", bench: "lps", midScale: true, parallelism: 4, reuse: true},
	{name: "mum-par1-reuse", bench: "mum", midScale: true, parallelism: 1, reuse: true},
	{name: "mum-par4-reuse", bench: "mum", midScale: true, parallelism: 4, reuse: true},
	{name: "app-pipeline", bench: "pipeline", app: true, chain: true},
	{name: "app-cotenant", bench: "cotenant", app: true},
}

// caseSetup returns the kernel and GPU configuration for one case. Kernels
// come from the shared store, so cases measuring the same (bench, scale)
// under different engine settings share one trace build.
func caseSetup(c simBenchCase) (*trace.Kernel, config.GPU, error) {
	if c.midScale {
		k, err := workloads.Shared().Kernel(c.bench, workloads.Scale{CTAs: 24, WarpsPerCTA: 8, Iters: 8})
		return k, config.Scaled(8, 48), err
	}
	k, err := workloads.Shared().Kernel(c.bench, workloads.Scale{CTAs: 12, WarpsPerCTA: 8, Iters: 8})
	return k, config.Scaled(4, 64), err
}

// writeSimBench measures simulator throughput and writes path. When
// baselinePath is non-empty, the new numbers are also checked against the
// committed baseline and an error is returned if any case's throughput
// dropped by more than regressionTolerance.
func writeSimBench(path, baselinePath string) error {
	out := simBenchFile{
		GeneratedAt:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:         runtime.Version(),
		MaxProcs:          runtime.GOMAXPROCS(0),
		ParallelSpeedup:   make(map[string]float64),
		PhaseNs:           make(map[string]map[string]int64),
		SerialShare:       make(map[string]float64),
		BarriersPerKcycle: make(map[string]float64),
	}
	out.RouteShare = make(map[string]float64)
	out.MergeShare = make(map[string]float64)
	nsPerOp := make(map[string]int64)
	for _, c := range simBenchCases {
		if c.app {
			e, err := measureAppCase(c)
			if err != nil {
				return err
			}
			out.Entries = append(out.Entries, e)
			nsPerOp[c.name] = e.NsPerOp
			fmt.Fprintf(os.Stderr, "snakebench: %-12s %12d ns/op %12.0f cycles/s %8d allocs/op\n",
				c.name, e.NsPerOp, e.CyclesPerSec, e.AllocsPerOp)
			continue
		}
		k, cfg, err := caseSetup(c)
		if err != nil {
			return err
		}
		opt := sim.Options{
			Config:        cfg,
			NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
			Parallelism:   c.parallelism,
			// Parallel rows must measure the real multi-worker machinery even
			// when GOMAXPROCS would clamp it away; on a 1-core machine the row
			// is then marked barrier-overhead-only below.
			ForceParallelism: c.parallelism > 1,
		}
		var cycles int64
		var r testing.BenchmarkResult
		if c.reuse {
			// Persistent engine, warmed before timing: the measured op is the
			// steady-state reinitialize-and-run that pooled sweep traffic pays.
			en := sim.NewEngine()
			if _, err := en.RunTagged(k, opt, "snake"); err != nil {
				return err
			}
			r = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				cycles = 0
				for i := 0; i < b.N; i++ {
					res, err := en.RunTagged(k, opt, "snake")
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.Stats.Cycles
				}
			})
		} else {
			r = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				cycles = 0
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(k, opt)
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.Stats.Cycles
				}
			})
		}
		e := simBenchEntry{
			Name:                c.name,
			Bench:               c.bench,
			Parallelism:         c.parallelism,
			Reuse:               c.reuse,
			BarrierOverheadOnly: c.parallelism > 1 && out.MaxProcs == 1,
			NsPerOp:             r.NsPerOp(),
			CyclesPerSec:        float64(cycles) / r.T.Seconds(),
			AllocsPerOp:         r.AllocsPerOp(),
			BytesPerOp:          r.AllocedBytesPerOp(),
		}
		out.Entries = append(out.Entries, e)
		nsPerOp[c.name] = e.NsPerOp
		fmt.Fprintf(os.Stderr, "snakebench: %-16s %12d ns/op %12.0f cycles/s %8d allocs/op\n",
			c.name, e.NsPerOp, e.CyclesPerSec, e.AllocsPerOp)
		if c.parallelism != 0 && !c.reuse {
			// One extra profiled run, outside the timing loop: phase wall
			// clocks for the parallel cases (par1 included, as the serial
			// reference the share comparison needs). Reuse rows profile
			// identically to their fresh siblings, so they are skipped.
			prof, profCycles, err := measurePhases(k, cfg, c.parallelism, 0)
			if err != nil {
				return err
			}
			out.PhaseNs[c.name] = prof.Map()
			out.SerialShare[c.name] = prof.SerialShare()
			out.RouteShare[c.name] = prof.RouteShare()
			out.MergeShare[c.name] = prof.MergeShare()
			if profCycles > 0 {
				out.BarriersPerKcycle[c.name] = 1000 * float64(prof.Barriers()) / float64(profCycles)
			}
			if rm := out.RouteShare[c.name] + out.MergeShare[c.name]; c.parallelism > 1 && !e.BarrierOverheadOnly && rm > routeMergeShareMax {
				return fmt.Errorf("snakebench: %s route+merge share %.3f (route %.3f, merge %.3f) exceeds %.2f: the per-epoch route/merge passes must stay noise-level",
					c.name, rm, out.RouteShare[c.name], out.MergeShare[c.name], routeMergeShareMax)
			}
		}
	}
	for _, c := range simBenchCases {
		if c.parallelism <= 1 {
			continue
		}
		// Each parN row's reference is its par1 sibling with the same suffix
		// (so lps-par4-reuse compares against lps-par1-reuse, not lps-par1).
		serialName := strings.Replace(c.name, fmt.Sprintf("-par%d", c.parallelism), "-par1", 1)
		if serial, ok := nsPerOp[serialName]; ok && nsPerOp[c.name] > 0 {
			out.ParallelSpeedup[c.name] = float64(serial) / float64(nsPerOp[c.name])
		}
	}
	if err := checkParallelAllocsFlat(out.Entries); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snakebench: wrote %s\n", path)
	if baselinePath != "" {
		return checkRegression(baselinePath, out)
	}
	return nil
}

// measureAppCase times sim.RunApp on one application launch graph at the
// standard 4×64 experiment machine — the launch-scheduler counterpart of the
// kernel rows. The co-tenant app runs its partitioned launches concurrently,
// the pipeline app serially with chain persistence; both regress here if the
// launch layer grows per-launch overhead.
func measureAppCase(c simBenchCase) (simBenchEntry, error) {
	cfg := config.Scaled(4, 64)
	a, _, err := workloads.Shared().App(c.bench, workloads.Scale{CTAs: 12, WarpsPerCTA: 8, Iters: 8}, cfg.NumSM, 0)
	if err != nil {
		return simBenchEntry{}, err
	}
	opt := sim.Options{
		Config:           cfg,
		NewPrefetcher:    func(int) prefetch.Prefetcher { return core.NewSnake() },
		ChainPersistence: c.chain,
	}
	var cycles int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		cycles = 0
		for i := 0; i < b.N; i++ {
			res, err := sim.RunApp(a, opt)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Stats.Cycles
		}
	})
	return simBenchEntry{
		Name:         c.name,
		Bench:        c.bench,
		App:          true,
		Chain:        c.chain,
		NsPerOp:      r.NsPerOp(),
		CyclesPerSec: float64(cycles) / r.T.Seconds(),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
	}, nil
}

// routeMergeShareMax is the absolute ceiling on the route-plus-merge share of
// a genuinely parallel (P>1, multi-core) profiled run — the pieces of the old
// monolithic serial phase that the counting-scatter design claims are cheap:
// planRoute is an O(#partitions) prefix-sum per epoch, and the merge is heap
// pushes plus O(span × active shards) scatter bookkeeping. Unlike the
// relative serial-share guard this gate holds against the fresh measurement
// alone — a baseline that drifted up would not excuse it. (The remaining
// serial drain — the per-sub-cycle injection pump — is guarded relatively,
// via SerialShare.)
const routeMergeShareMax = 0.06

// checkParallelAllocsFlat is the allocation-flat parallel-mode gate: each
// pooled parN row must allocate within allocRegressionTolerance of its par1
// sibling (plus the small-count floor), on every bench run — allocation
// counts are deterministic, so this needs no committed baseline. A parallel
// pooled run that allocates beyond the serial steady state means some arena
// (routed slab, due views, scatter scratch, crew) stopped recycling.
func checkParallelAllocsFlat(entries []simBenchEntry) error {
	byName := make(map[string]simBenchEntry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	for _, e := range entries {
		if !e.Reuse || e.Parallelism <= 1 {
			continue
		}
		serial, ok := byName[strings.Replace(e.Name, fmt.Sprintf("-par%d", e.Parallelism), "-par1", 1)]
		if !ok || serial.AllocsPerOp <= 0 {
			continue
		}
		if e.AllocsPerOp > allocFloor &&
			float64(e.AllocsPerOp) > float64(serial.AllocsPerOp)*allocRegressionTolerance {
			return fmt.Errorf("snakebench: %s allocates %d/op vs %s's %d/op: parallel pooled runs must stay allocation-flat (tolerance %.2fx)",
				e.Name, e.AllocsPerOp, serial.Name, serial.AllocsPerOp, allocRegressionTolerance)
		}
	}
	return nil
}

// measurePhases runs the kernel once with a phase accumulator attached and
// returns the per-phase wall clock plus the run's simulated cycle count
// (the denominator for barriers-per-kilocycle).
func measurePhases(k *trace.Kernel, cfg config.GPU, parallelism, slack int) (*profiling.Phases, int64, error) {
	var prof profiling.Phases
	opt := sim.Options{
		Config:        cfg,
		NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
		Parallelism:   parallelism,
		SlackWindow:   slack,
		PhaseProfile:  &prof,
		// Profile the real multi-worker phase split even where GOMAXPROCS
		// would clamp it away (the shares are then barrier-overhead shares).
		ForceParallelism: parallelism > 1,
	}
	res, err := sim.Run(k, opt)
	if err != nil {
		return nil, 0, err
	}
	return &prof, res.Stats.Cycles, nil
}

// reportPhases implements snakebench -phases: per-phase engine wall clock
// and serial share for the parallel benchmark cases, at serial execution and
// at the requested parallelism. This is the Amdahl report: the drain, route
// and merge columns are the part of the cycle no amount of -parallel can
// compress, and the share column is their fraction of the total — with route%
// and merge% broken out so each serial phase's trajectory is visible on its
// own (their sum must stay noise-level; see routeMergeShareMax). The barriers and
// cyc/barrier columns show how well bounded-slack ticking amortizes the wave
// barrier (honors -slack).
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
			prof, _, err := measurePhases(k, cfg, p, slack)
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

// regressionTolerance is the allowed throughput drop vs the committed
// baseline before the bench-regression guard fails: new ns/op may be at most
// 1.25× the old (a >20% throughput drop). Parallel rows are the executor's
// headline number and get the tighter parRegressionTolerance: a par4 case
// whose ns/op grows past 1.20× the baseline fails even where a serial case
// would still squeak by.
const (
	regressionTolerance    = 1.25
	parRegressionTolerance = 1.20
)

// Allocation regressions use a tighter ratio: allocation counts are far less
// noisy than wall time, so >20% growth in allocs/op or bytes/op is a real
// code change, not jitter. Entries below the absolute floors are exempt —
// at near-zero steady-state counts (a reuse case at ~2 allocs/op), one
// incidental allocation would trip any ratio.
const (
	allocRegressionTolerance = 1.20
	allocFloor               = 16       // allocs/op below this never flag
	bytesFloor               = 16 << 10 // bytes/op below this never flag
)

// Serial-share growth at P>1 is the Amdahl regression: a case may spend at
// most shareRegressionTolerance× the baseline's serial fraction, and small
// absolute wobbles (wall-clock phase timing on a loaded CI machine is noisy)
// are excused below shareAbsFloor of absolute growth. Both must be exceeded
// to flag. P=1 cases are not guarded — serially everything but the shard
// phase is "serial", and the share carries no Amdahl meaning there.
const (
	shareRegressionTolerance = 1.25
	shareAbsFloor            = 0.05
)

// Barrier-density growth is the slack regression: a profiled case may cross
// at most barrierRegressionTolerance× the baseline's barrier waves per
// kilocycle, with small absolute wobbles (epoch cuts move with workload
// timing noise) excused below barrierAbsFloor of absolute growth. Both must
// be exceeded to flag. Wide-horizon epochs pushed the committed levels to
// ~13–37 waves/kcycle (they were ~130–140 under the old 8-cycle cap), so the
// floor is a few absolute waves, not tens — at these densities a 20-wave
// regression would already be a 1.5–2.5× collapse of epoch length.
const (
	barrierRegressionTolerance = 1.20
	barrierAbsFloor            = 3.0
)

// checkRegression compares the fresh measurements against the committed
// BENCH_sim.json: wall time per op, and — for memory-cost regressions that
// wall time hides on fast allocators — allocations and bytes per op. Only
// cases present in both files are compared, so adding or renaming cases does
// not break the guard; wholly missing baselines pass (first run on a new
// schema).
func checkRegression(baselinePath string, fresh simBenchFile) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench regression baseline: %w", err)
	}
	var base simBenchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench regression baseline %s: %w", baselinePath, err)
	}
	old := make(map[string]simBenchEntry, len(base.Entries))
	for _, e := range base.Entries {
		old[e.Name] = e
	}
	var regressions []string
	flag := func(name, metric string, got, want int64, tol float64, floor int64) {
		if want <= 0 || got <= floor {
			return
		}
		if float64(got) > float64(want)*tol {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d %s vs baseline %d (%.2fx, tolerance %.2fx)",
					name, got, metric, want, float64(got)/float64(want), tol))
		}
	}
	for _, e := range fresh.Entries {
		o, ok := old[e.Name]
		if !ok {
			continue
		}
		// Allocation counts are environment-independent and always compared;
		// wall time is only comparable when both measurements ran in the same
		// parallel regime (a barrier-overhead-only row against a genuinely
		// parallel baseline, or vice versa, measures the machine, not the code).
		if e.BarrierOverheadOnly == o.BarrierOverheadOnly {
			tol := regressionTolerance
			if e.Parallelism > 1 {
				tol = parRegressionTolerance
			}
			flag(e.Name, "ns/op", e.NsPerOp, o.NsPerOp, tol, 0)
		}
		flag(e.Name, "allocs/op", e.AllocsPerOp, o.AllocsPerOp, allocRegressionTolerance, allocFloor)
		flag(e.Name, "bytes/op", e.BytesPerOp, o.BytesPerOp, allocRegressionTolerance, bytesFloor)
	}
	for _, e := range fresh.Entries {
		if e.Parallelism <= 1 {
			continue
		}
		// Share/barrier profiles only mean something for genuinely parallel
		// rows: when either side is barrier-overhead-only the phase split
		// measures one core's scheduler interleaving, not the executor.
		if e.BarrierOverheadOnly {
			continue
		}
		if o, ok := old[e.Name]; ok && o.BarrierOverheadOnly {
			continue
		}
		got, gok := fresh.SerialShare[e.Name]
		want, wok := base.SerialShare[e.Name]
		if !gok || !wok || want <= 0 {
			continue // baseline predates phase profiling, or case not profiled
		}
		if got > want*shareRegressionTolerance && got-want > shareAbsFloor {
			regressions = append(regressions,
				fmt.Sprintf("%s: serial phase share %.3f vs baseline %.3f (%.2fx, tolerance %.2fx and +%.2f absolute)",
					e.Name, got, want, got/want, shareRegressionTolerance, shareAbsFloor))
		}
		bGot, bgok := fresh.BarriersPerKcycle[e.Name]
		bWant, bwok := base.BarriersPerKcycle[e.Name]
		if bgok && bwok && bWant > 0 &&
			bGot > bWant*barrierRegressionTolerance && bGot-bWant > barrierAbsFloor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f barriers/kcycle vs baseline %.1f (%.2fx, tolerance %.2fx and +%.0f absolute)",
					e.Name, bGot, bWant, bGot/bWant, barrierRegressionTolerance, barrierAbsFloor))
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "snakebench: REGRESSION "+r)
		}
		return fmt.Errorf("performance regressed on %d case(s) vs %s", len(regressions), baselinePath)
	}
	fmt.Fprintf(os.Stderr, "snakebench: no regressions vs %s\n", baselinePath)
	return nil
}
