// Package repro_test regenerates every table and figure of the Snake paper
// as Go benchmarks: one benchmark per experiment, each reporting the
// experiment's headline metric via b.ReportMetric. A process-wide memoized
// runner backs all benchmarks, so repeated iterations are cheap and
// `go test -bench=. -benchmem` regenerates the full evaluation.
//
// The printed rows of each figure are available through cmd/snakebench
// (e.g. `go run ./cmd/snakebench -exp fig16`); EXPERIMENTS.md records the
// paper-vs-measured comparison.
package repro_test

import (
	"runtime"
	"sync"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/prefetch"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/trace"
	"snake/internal/workloads"
)

var (
	runnerOnce sync.Once
	runner     *harness.Runner
)

// sharedRunner returns the process-wide memoized experiment runner.
func sharedRunner() *harness.Runner {
	runnerOnce.Do(func() { runner = harness.NewRunner() })
	return runner
}

// runExperiment executes one harness experiment per iteration (memoized
// after the first) and reports the mean of the given column as metric.
func runExperiment(b *testing.B, id string, col int, metric string) {
	b.Helper()
	r := sharedRunner()
	exp, ok := harness.Experiments[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		t, err := exp(r)
		if err != nil {
			b.Fatal(err)
		}
		last := t.Rows[len(t.Rows)-1]
		if col < len(last.Values) {
			b.ReportMetric(last.Values[col], metric)
		}
	}
}

// Motivational figures (baseline characterization).

func BenchmarkFig03ReservationFails(b *testing.B) { runExperiment(b, "fig3", 0, "resfail-frac") }
func BenchmarkFig04BandwidthUtil(b *testing.B)    { runExperiment(b, "fig4", 0, "bw-util") }
func BenchmarkFig05MemoryStalls(b *testing.B)     { runExperiment(b, "fig5", 0, "memstall-frac") }
func BenchmarkFig06CoverageVsIdeal(b *testing.B)  { runExperiment(b, "fig6", 4, "ideal-coverage") }
func BenchmarkFig09ChainPCFraction(b *testing.B)  { runExperiment(b, "fig9", 0, "chain-pc-frac") }
func BenchmarkFig10ChainRepetition(b *testing.B)  { runExperiment(b, "fig10", 0, "max-repetition") }
func BenchmarkFig11ChainVsMTA(b *testing.B)       { runExperiment(b, "fig11", 0, "chain-coverage") }

// Evaluation figures. Column indices follow harness.Fig16Order; "snake" is
// index 8.

func BenchmarkFig16Coverage(b *testing.B) { runExperiment(b, "fig16", 8, "snake-coverage") }
func BenchmarkFig17Accuracy(b *testing.B) { runExperiment(b, "fig17", 8, "snake-accuracy") }
func BenchmarkFig18Performance(b *testing.B) {
	runExperiment(b, "fig18", 8, "snake-speedup")
}
func BenchmarkFig19Energy(b *testing.B) { runExperiment(b, "fig19", 0, "snake-energy-norm") }
func BenchmarkFig20TailEntries(b *testing.B) {
	// Column 2 of the {3,5,10,20,unbounded} sweep is the paper's 10-entry
	// operating point.
	runExperiment(b, "fig20", 2, "coverage-at-10-entries")
}
func BenchmarkFig21StorageCost(b *testing.B) { runExperiment(b, "fig21", 2, "tail-bytes") }
func BenchmarkFig22EvictionPolicy(b *testing.B) {
	runExperiment(b, "fig22", 2, "popcount-only-coverage")
}
func BenchmarkFig23ThrottleInterval(b *testing.B) { runExperiment(b, "fig23", 0, "accuracy") }
func BenchmarkFig24Tiling(b *testing.B)           { runExperiment(b, "fig24", 0, "ipc-norm") }
func BenchmarkFig25HitRate(b *testing.B)          { runExperiment(b, "fig25", 1, "snake-hit-rate") }

// Tables.

func BenchmarkTable1Config(b *testing.B)     { runExperiment(b, "table1", 0, "num-sm") }
func BenchmarkTable2Benchmarks(b *testing.B) { runExperiment(b, "table2", 0, "loads") }
func BenchmarkTable3HardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := core.DefaultCost()
		if c.HeadBytes() != 448 || c.TailBytes() != 320 {
			b.Fatalf("Table 3 drift: head=%d tail=%d", c.HeadBytes(), c.TailBytes())
		}
		b.ReportMetric(float64(c.TotalBytes()), "total-bytes")
	}
}

// Ablation benchmarks for the design decisions DESIGN.md calls out.

// benchVariant runs lps under a custom Snake configuration and reports the
// speedup over baseline.
func benchVariant(b *testing.B, key string, cfg core.Config) {
	b.Helper()
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		base, err := r.Run("lps", "baseline")
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.SnakeVariant("lps", key, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.IPC()/base.IPC(), "speedup")
		b.ReportMetric(st.Coverage(), "coverage")
	}
}

func BenchmarkAblationDecoupling(b *testing.B) {
	cfg := core.Defaults()
	cfg.DisableDecoupling = true
	benchVariant(b, "abl-nodecouple", cfg)
}

func BenchmarkAblationThrottle(b *testing.B) {
	cfg := core.Defaults()
	cfg.DisableThrottle = true
	benchVariant(b, "abl-nothrottle", cfg)
}

func BenchmarkAblationChainDepth1(b *testing.B) {
	cfg := core.Defaults()
	cfg.ChainDepth = 1
	benchVariant(b, "abl-depth1", cfg)
}

func BenchmarkAblationChainDepth8(b *testing.B) {
	cfg := core.Defaults()
	cfg.ChainDepth = 8
	benchVariant(b, "abl-depth8", cfg)
}

// BenchmarkAblationHeadColumns measures the §3.1 doubled Head-table columns
// under the greedy GTO scheduler: with a single column per row, two warps
// sharing a row thrash each other's history.
func BenchmarkAblationHeadColumns(b *testing.B) {
	cfg := core.Defaults()
	cfg.HeadSlotsPerRow = 1
	benchVariant(b, "abl-singlehead", cfg)
}

// throughputCase is one row of BenchmarkSimulatorThroughput. Serial rows
// run the standard 4×64 experiment machine at 12×8×8. parN rows run the
// mid-scale 8-SM machine at 24×8×8 on N shard workers (the real barrier
// machinery runs whatever GOMAXPROCS is). Reuse rows re-run on a
// warmed persistent Engine, the steady state of pooled sweep traffic: their
// allocs/op is the per-run residual. App rows time sim.RunApp on a launch
// graph, so launch-layer overhead shows up as its own row.
type throughputCase struct {
	name        string
	bench       string
	parallelism int // 0: serial engine on the 4×64 machine
	reuse       bool
	app         bool // bench names an application; the op is sim.RunApp
	chain       bool // persist chain tables across launches (app rows)
}

var throughputCases = []throughputCase{
	{name: "lps", bench: "lps"},
	{name: "mum", bench: "mum"},
	{name: "nw", bench: "nw"},
	{name: "lps-par1", bench: "lps", parallelism: 1},
	{name: "lps-par4", bench: "lps", parallelism: 4},
	{name: "mum-par1", bench: "mum", parallelism: 1},
	{name: "mum-par4", bench: "mum", parallelism: 4},
	{name: "nw-par1", bench: "nw", parallelism: 1},
	{name: "nw-par4", bench: "nw", parallelism: 4},
	{name: "lps-reuse", bench: "lps", reuse: true},
	{name: "mum-reuse", bench: "mum", reuse: true},
	{name: "nw-reuse", bench: "nw", reuse: true},
	{name: "lps-par1-reuse", bench: "lps", parallelism: 1, reuse: true},
	{name: "lps-par4-reuse", bench: "lps", parallelism: 4, reuse: true},
	{name: "mum-par1-reuse", bench: "mum", parallelism: 1, reuse: true},
	{name: "mum-par4-reuse", bench: "mum", parallelism: 4, reuse: true},
	{name: "app-pipeline", bench: "pipeline", app: true, chain: true},
	{name: "app-cotenant", bench: "cotenant", app: true},
}

// routeMergeMax is the absolute ceiling on the route-plus-merge share of a
// profiled P>1 run: planRoute is an O(#partitions) prefix-sum per epoch and
// the merge is heap pushes plus O(span × active shards) scatter bookkeeping,
// so together they must stay noise-level. The drain rides the A/B's relative
// serial-share gate instead.
const routeMergeMax = 0.06

// BenchmarkSimulatorThroughput measures raw simulator throughput under the
// Snake prefetcher: ns/op and allocs/op per case, simulated cycles per
// wall-clock second, and, for fresh parN rows, the serial (drain + route +
// merge) share of one profiled run taken outside the timer.
// scripts/bench_ab.sh compares these rows between two commits on one
// machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, c := range throughputCases {
		b.Run(c.name, func(b *testing.B) {
			op, opt := throughputOp(b, c)
			share := -1.0
			if c.parallelism != 0 && !c.reuse {
				var prof profiling.Phases
				popt := opt
				popt.PhaseProfile = &prof
				op(popt)
				// On one core the workers interleave, and the shares measure
				// the scheduler rather than the executor.
				if rm := prof.RouteShare() + prof.MergeShare(); c.parallelism > 1 && runtime.GOMAXPROCS(0) > 1 && rm > routeMergeMax {
					b.Fatalf("route+merge share %.3f (route %.3f, merge %.3f) exceeds %.2f: the per-epoch route/merge passes must stay noise-level",
						rm, prof.RouteShare(), prof.MergeShare(), routeMergeMax)
				}
				share = prof.SerialShare()
			}
			b.ReportAllocs()
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles += op(opt)
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
			if share >= 0 {
				b.ReportMetric(share, "serial-share")
			}
		})
	}
}

// throughputOp builds the case's workload and returns its options and its
// timed op, which simulates under the given options and returns the
// simulated cycle count.
func throughputOp(b *testing.B, c throughputCase) (func(sim.Options) int64, sim.Options) {
	cfg, sc := config.Scaled(4, 64), workloads.Scale{CTAs: 12, WarpsPerCTA: 8, Iters: 8}
	if c.parallelism != 0 {
		cfg, sc.CTAs = config.Scaled(8, 48), 24
	}
	opt := sim.Options{
		Config:           cfg,
		NewPrefetcher:    func(int) prefetch.Prefetcher { return core.NewSnake() },
		Parallelism:      c.parallelism,
		ChainPersistence: c.chain,
	}
	if c.app {
		a, _, err := workloads.Shared().App(c.bench, sc, cfg.NumSM, 0)
		if err != nil {
			b.Fatal(err)
		}
		return func(opt sim.Options) int64 {
			res, err := sim.RunApp(a, opt)
			if err != nil {
				b.Fatal(err)
			}
			return res.Stats.Cycles
		}, opt
	}
	k, err := workloads.Shared().Kernel(c.bench, sc)
	if err != nil {
		b.Fatal(err)
	}
	run := sim.Run
	if c.reuse {
		en := sim.NewEngine()
		run = func(k *trace.Kernel, opt sim.Options) (*sim.Result, error) { return en.RunTagged(k, opt, "snake") }
		if _, err := run(k, opt); err != nil { // warm the engine before timing
			b.Fatal(err)
		}
	}
	return func(opt sim.Options) int64 {
		res, err := run(k, opt)
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats.Cycles
	}, opt
}
