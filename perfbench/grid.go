package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"snake/internal/harness"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// gridInflight is how many cells the grid keeps in flight: the host's two
// cores, one serial simulation each.
const gridInflight = 2

// warmBench is the grid's cheapest benchmark, the one the engine pool is
// warmed with.
const warmBench = "cp"

// interned records the trace store's two costs: the first Store.Kernel call
// of each kernel (a build) and a second call (an intern hit).
type interned struct{ buildMs, hitUs []float64 }

func intern(st *workloads.Store, benches []string, sc workloads.Scale) (interned, error) {
	var in interned
	for _, b := range benches {
		t := time.Now()
		if _, err := st.Kernel(b, sc); err != nil {
			return in, err
		}
		in.buildMs = append(in.buildMs, ms(time.Since(t)))
		t = time.Now()
		if _, err := st.Kernel(b, sc); err != nil {
			return in, err
		}
		in.hitUs = append(in.hitUs, us(time.Since(t)))
	}
	return in, nil
}

func (in interned) report(l *layers) {
	l.set("workloads.build_ms", median(in.buildMs), "ms")
	l.set("workloads.intern_hit_us", median(in.hitUs), "us")
}

// warmPool runs every kernel under every tag copies times, gridInflight at
// a time, so the pool holds as many warm engines per (config, tag) as there
// are runs in flight, their arenas grown to the real kernels' size.
func warmPool(pool *harness.EnginePool, kernels []*trace.Kernel, tags []string, copies int, factory func(tag string) (harness.Factory, error)) error {
	type run struct {
		k   *trace.Kernel
		tag string
		f   harness.Factory
	}
	var runs []run
	for _, tag := range tags {
		f, err := factory(tag)
		if err != nil {
			return err
		}
		for _, k := range kernels {
			for i := 0; i < copies; i++ {
				runs = append(runs, run{k, tag, f})
			}
		}
	}
	errs := make([]error, len(runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < gridInflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
				_, errs[i] = pool.Run(runs[i].k, sim.Options{Config: gridCfg, NewPrefetcher: runs[i].f}, runs[i].tag)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// gridEngines is what a grid pass draws on: an interned trace store and a
// warmed engine pool, both private to the pass so set-up can be repeated.
type gridEngines struct {
	store *workloads.Store
	pool  *harness.EnginePool
}

func (g gridEngines) runner() *harness.Runner {
	r := harness.NewRunner()
	r.Store, r.Engines, r.Budget = g.store, g.pool, harness.NewBudget(gridInflight)
	return r
}

// setupGrid interns every benchmark into a fresh store and warms a fresh
// pool; it returns them, the set-up seconds and the intern timings.
func setupGrid() (gridEngines, float64, interned, error) {
	settle()
	t := time.Now()
	g := gridEngines{workloads.NewStore(), harness.NewEnginePool()}
	in, err := intern(g.store, workloads.Names(), gridScale)
	if err != nil {
		return g, 0, in, err
	}
	k, err := g.store.Kernel(warmBench, gridScale)
	if err != nil {
		return g, 0, in, err
	}
	if err := warmPool(g.pool, []*trace.Kernel{k}, gridMechs, gridInflight, harness.Mechanism); err != nil {
		return g, 0, in, err
	}
	secs := time.Since(t).Seconds()
	settle()
	return g, secs, in, nil
}

// runCells runs cells through r, inflight at a time in the given order, and
// checks every result against its reference. With a tracer it records one
// span per Runner.Run and, from prof, one reported child span per engine
// phase (prof needs inflight == 1: the accumulator is unsynchronized).
func runCells(e *env, r *harness.Runner, cells []cell, inflight int, tr *tracer, prof *profiling.Phases) (*pass, []*stats.Sim) {
	p := &pass{lat: make([]float64, len(cells))}
	sts := make([]*stats.Sim, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				c := cells[i]
				var before [profiling.NumPhases]int64
				id, end := 0, func() {}
				if tr != nil {
					id, end = tr.begin("harness.Runner.Run", 0, i)
				}
				if prof != nil {
					for ph := range before {
						before[ph] = prof.Ns(profiling.Phase(ph))
					}
				}
				t := time.Now()
				st, err := r.Run(c.bench, c.mech)
				p.lat[i] = ms(time.Since(t))
				end()
				if prof != nil {
					for ph := range before {
						d := prof.Ns(profiling.Phase(ph)) - before[ph]
						tr.reported("sim."+profiling.Phase(ph).String(), id, i, time.Duration(d))
					}
				}
				if err == nil {
					err = e.refs.checkStats(c.id(), st)
				}
				sts[i], errs[i] = st, err
			}
		}()
	}
	wg.Wait()
	p.busy(inflight)
	for _, err := range errs {
		p.check(err)
	}
	return p, sts
}

// gridRoundS is one round of grid-cells, a set-up and the whole grid two
// cells at a time, in wall seconds on a 2-core host.
const gridRoundS = 8

// measureGrid: the Fig. 18 grid, 11 benchmarks x 11 mechanisms, through
// harness.Runner.Run with two cells in flight. Each round sets up a fresh
// store and pool and runs on a fresh Runner, so every cell simulates, in its
// own cell order drawn from the seed, so a cell meets different neighbours
// from round to round.
func measureGrid(e *env) (*pass, error) {
	rng := rand.New(rand.NewSource(e.seed))
	cells := gridCells(workloads.Names())
	p := &pass{}
	for i := 0; i < rounds(e.seconds, gridRoundS); i++ {
		g, setupS, _, err := setupGrid()
		if err != nil {
			return nil, err
		}
		p.setup(setupS)
		order := shuffled(rng, cells)
		r, sts := runCells(e, g.runner(), order, gridInflight, nil, nil)
		p.fold(rearranged(r, order, cells))
		if i == 0 {
			printFig18(order, sts)
		}
	}
	p.busy(gridInflight)
	return p, nil
}

// rearranged returns r with its latencies, run in the order ran, moved into
// the order of cells.
func rearranged(r *pass, ran, cells []cell) *pass {
	at := map[cell]int{}
	for i, c := range ran {
		at[c] = i
	}
	out := *r
	out.lat = make([]float64, len(cells))
	for i, c := range cells {
		out.lat[i] = r.lat[at[c]]
	}
	return &out
}

// committedFig18 is the Fig. 18 mean row of results_all.txt, an older
// engine's output kept for comparison only.
var committedFig18 = map[string]float64{
	"intra": 1.317, "inter": 1.009, "mta": 1.312, "cta": 1.003, "tree": 0.903,
	"s-snake": 1.239, "snake-dt": 1.453, "snake-t": 1.387, "snake": 1.339, "snake+cta": 1.315,
}

// paperSnakeGain is the paper's mean Snake IPC gain over the baseline (+17%).
const paperSnakeGain = 0.17

// fig18Means returns the mean over benchmarks of each mechanism's IPC
// normalized to the baseline, from whichever grid cells are present.
func fig18Means(cells []cell, sts []*stats.Sim) map[string]float64 {
	ipc := map[cell]float64{}
	for i, c := range cells {
		if sts[i] != nil {
			ipc[c] = sts[i].IPC()
		}
	}
	sum, n := map[string]float64{}, map[string]int{}
	for c, v := range ipc {
		base, ok := ipc[cell{c.bench, "baseline"}]
		if c.mech == "baseline" || !ok || base == 0 {
			continue
		}
		sum[c.mech] += v / base
		n[c.mech]++
	}
	out := map[string]float64{}
	for m, s := range sum {
		out[m] = s / float64(n[m])
	}
	return out
}

// printFig18 prints the pass's Fig. 18 means beside results_all.txt and the
// paper. The model is unvalidated against hardware, so the differences are
// stated, not gated.
func printFig18(cells []cell, sts []*stats.Sim) {
	means := fig18Means(cells, sts)
	fmt.Printf("fig18 mean IPC / baseline: %-10s %8s %16s %8s\n", "mech", "this run", "results_all.txt", "diff")
	for _, m := range harness.Fig16Order {
		fmt.Printf("fig18 mean IPC / baseline: %-10s %8.3f %16.3f %+8.3f\n", m, means[m], committedFig18[m], means[m]-committedFig18[m])
	}
	fmt.Printf("fig18: snake gain %+.1f%% vs paper %+.1f%% (model error %+.1f points; the model is not validated against hardware)\n",
		100*(means["snake"]-1), 100*paperSnakeGain, 100*(means["snake"]-1-paperSnakeGain))
}

// tracedGrid runs the grid three ways over the same cells: two in flight
// untraced (as measured), sequentially untraced, and sequentially traced with
// the engine's PhaseProfile hook, which needs cells run one at a time.
func tracedGrid(e *env, l *layers) error {
	rng := rand.New(rand.NewSource(e.seed))
	return gridLayers(e, l, shuffled(rng, gridCells(workloads.Names())), true)
}

// reducedGrid is the grid's traced pass cut to the baseline and Snake cells
// the model metrics need, for traced runs of other workloads.
func reducedGrid(e *env, l *layers) error {
	var cells []cell
	for _, b := range workloads.Names() {
		cells = append(cells, cell{b, "baseline"}, cell{b, "snake"})
	}
	return gridLayers(e, l, cells, false)
}

func gridLayers(e *env, l *layers, cells []cell, own bool) error {
	g, _, in, err := setupGrid()
	if err != nil {
		return err
	}
	in.report(l)
	par, sts := runCells(e, g.runner(), cells, gridInflight, nil, nil)
	seq, _ := runCells(e, g.runner(), cells, 1, nil, nil)
	tr := newTracer()
	prof := &profiling.Phases{}
	r := g.runner()
	r.PhaseProfile = prof
	traced, _ := runCells(e, r, cells, 1, tr, prof)
	for _, p := range []*pass{par, seq, traced} {
		l.add(p)
	}

	ratios := make([]float64, len(cells))
	for i := range cells {
		ratios[i] = par.lat[i] / seq.lat[i]
	}
	l.set("harness.concurrency_slowdown", median(ratios), "ratio")
	if own {
		l.set("trace.overhead", sum(traced.lat)/sum(seq.lat)-1, "share")
		l.set("trace.unattributed_share", tr.unattributed(), "share")
		if err := tr.write("grid-cells", e.seed); err != nil {
			return err
		}
	}
	reportModel(l, cells, sts)
	return nil
}

// reportModel reports the modelled GPU's statistics for the baseline and
// Snake, averaged over the Table 2 benchmarks. They are simulated results: a
// change meant only to speed up the simulator must leave every one unchanged.
func reportModel(l *layers, cells []cell, sts []*stats.Sim) {
	for _, mech := range []string{"baseline", "snake"} {
		var n float64
		var acc [8]float64
		for i, c := range cells {
			st := sts[i]
			if c.mech != mech || st == nil {
				continue
			}
			n++
			for j, v := range []float64{st.IPC(), st.L1HitRate(), st.ReservationFailRate(), st.Coverage(),
				st.Accuracy(), st.BandwidthUtilization(), float64(st.DRAMReads), float64(st.L2Merges)} {
				acc[j] += v
			}
		}
		if n == 0 {
			continue
		}
		for j, name := range []string{"ipc", "l1_hit_rate", "resfail_rate", "pf_coverage", "pf_accuracy", "icnt_util", "dram_reads", "l2_merges"} {
			unit := "ratio"
			switch name {
			case "ipc":
				unit = "inst/cycle"
			case "dram_reads", "l2_merges":
				unit = "count"
			}
			l.set("model."+mech+"."+name, acc[j]/n, unit)
		}
	}
	gain := fig18Means(cells, sts)["snake"] - 1
	l.set("model.snake_ipc_gain", gain, "ratio")
	fmt.Printf("model: snake IPC gain %+.1f%% vs paper %+.1f%% (unvalidated model; difference %+.1f points)\n",
		100*gain, 100*paperSnakeGain, 100*(gain-paperSnakeGain))
}
