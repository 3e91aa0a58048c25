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
	"sync"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/prefetch"
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
func benchVariant(b *testing.B, cfg core.Config) {
	b.Helper()
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		base, err := r.Run("lps", "baseline")
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.SnakeVariant("lps", cfg)
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
	benchVariant(b, cfg)
}

func BenchmarkAblationThrottle(b *testing.B) {
	cfg := core.Defaults()
	cfg.DisableThrottle = true
	benchVariant(b, cfg)
}

func BenchmarkAblationChainDepth1(b *testing.B) {
	cfg := core.Defaults()
	cfg.ChainDepth = 1
	benchVariant(b, cfg)
}

func BenchmarkAblationChainDepth8(b *testing.B) {
	cfg := core.Defaults()
	cfg.ChainDepth = 8
	benchVariant(b, cfg)
}

// BenchmarkAblationHeadColumns measures the §3.1 doubled Head-table columns
// under the greedy GTO scheduler: with a single column per row, two warps
// sharing a row thrash each other's history.
func BenchmarkAblationHeadColumns(b *testing.B) {
	cfg := core.Defaults()
	cfg.HeadSlotsPerRow = 1
	benchVariant(b, cfg)
}

// throughputCase is one row of BenchmarkSimulatorThroughput. Kernel rows
// run the standard 4×64 experiment machine at 12×8×8. Reuse rows re-run on a
// warmed persistent Engine, the steady state of pooled sweep traffic: their
// allocs/op is the per-run residual.
type throughputCase struct {
	name  string
	bench string
	reuse bool
}

var throughputCases = []throughputCase{
	{name: "lps", bench: "lps"},
	{name: "mum", bench: "mum"},
	{name: "nw", bench: "nw"},
	{name: "lps-reuse", bench: "lps", reuse: true},
	{name: "mum-reuse", bench: "mum", reuse: true},
	{name: "nw-reuse", bench: "nw", reuse: true},
}

// BenchmarkSimulatorThroughput measures raw simulator throughput under the
// Snake prefetcher: ns/op and allocs/op per case, and simulated cycles per
// wall-clock second. scripts/bench_ab.sh compares these rows between two
// commits on one machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, c := range throughputCases {
		b.Run(c.name, func(b *testing.B) {
			op, opt := throughputOp(b, c)
			b.ReportAllocs()
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles += op(opt)
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// throughputOp builds the case's workload and returns its options and its
// timed op, which simulates under the given options and returns the
// simulated cycle count.
func throughputOp(b *testing.B, c throughputCase) (func(sim.Options) int64, sim.Options) {
	opt := sim.Options{
		Config:        config.Scaled(4, 64),
		NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
	}
	k, err := workloads.Shared().Kernel(c.bench, workloads.Scale{CTAs: 12, WarpsPerCTA: 8, Iters: 8})
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
