package harness

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"snake/internal/config"
	"snake/internal/sim"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// TestPrefillSharesKernelBuild is the satellite proof that routing runs
// through the kernel store amortizes trace generation: prefilling one
// benchmark across several mechanisms builds its trace exactly once.
func TestPrefillSharesKernelBuild(t *testing.T) {
	r := tinyRunner()
	r.Store = workloads.NewStore()
	mechs := []string{"baseline", "snake", "mta", "ideal"}
	if err := r.Prefill([]string{"lps"}, mechs); err != nil {
		t.Fatal(err)
	}
	if got := r.Store.Builds(); got != 1 {
		t.Errorf("Prefill of 1 bench x %d mechs built %d kernels, want 1", len(mechs), got)
	}
	// A second benchmark adds exactly one more build.
	if err := r.Prefill([]string{"mum"}, mechs); err != nil {
		t.Fatal(err)
	}
	if got := r.Store.Builds(); got != 2 {
		t.Errorf("after second bench Builds() = %d, want 2", got)
	}
}

// TestEnginePoolMatchesFresh runs every registry mechanism twice, in a
// seeded shuffled order, through one EnginePool, and checks every Result
// against a freshly constructed engine. The pool is shared by every
// mechanism, so each run draws an engine whose previous run was, in the
// main, a different mechanism: the L1's storage organization moves between
// plain, decoupled and isolated, and the retained prefetchers are swapped.
func TestEnginePoolMatchesFresh(t *testing.T) {
	cfg := config.Scaled(2, 16)
	sc := workloads.Tiny()
	benches := []string{"lps", "mum", "hotspot"}
	var order []string
	rng := rand.New(rand.NewSource(24))
	for pass := 0; pass < 2; pass++ {
		names := MechanismNames()
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		order = append(order, names...)
	}
	p := NewEnginePool()
	for i, mech := range order {
		bench := benches[i%len(benches)]
		k, err := workloads.Build(bench, sc)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Mechanism(mech)
		if err != nil {
			t.Fatal(err)
		}
		opt := sim.Options{Config: cfg, NewPrefetcher: f}
		want, err := sim.Run(k, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(k, opt, mech)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d %s/%s: pooled run diverges from fresh", i, bench, mech)
		}
	}
}

// TestEnginePoolMixedStream shares one pool between two goroutines running
// a mixed stream: four machine configs, two kernels, tagged and untagged. An
// engine checked out may have last run any of them, so runs rebuild,
// reinitialize and swap prefetchers in every combination; every result must
// still match a fresh engine's. Two configs differ from Scaled(2, 16) only in
// MLPPerWarp or FillsPerPartition, which the engine fixes at construction,
// so an engine must never be reused across them.
func TestEnginePoolMixedStream(t *testing.T) {
	sc := workloads.Tiny()
	st := workloads.NewStore()
	mlp, fills := config.Scaled(2, 16), config.Scaled(2, 16)
	mlp.MLPPerWarp = 1
	fills.FillsPerPartition = 1
	cfgs := []config.GPU{config.Scaled(2, 16), config.Scaled(4, 32), mlp, fills}
	type run struct {
		k    *trace.Kernel
		opt  sim.Options
		tag  string
		want *sim.Result
	}
	var runs []run
	for _, bench := range []string{"lps", "hotspot"} {
		k, err := st.Kernel(bench, sc)
		if err != nil {
			t.Fatal(err)
		}
		var first []*sim.Result // Scaled(2, 16)'s results, per mechanism
		for ci, cfg := range cfgs {
			for mi, mech := range []string{"baseline", "snake", "isolated-snake", "snake-t"} {
				f, err := Mechanism(mech)
				if err != nil {
					t.Fatal(err)
				}
				opt := sim.Options{Config: cfg, NewPrefetcher: f}
				want, err := sim.Run(k, opt)
				if err != nil {
					t.Fatal(err)
				}
				if ci == 0 {
					first = append(first, want)
				} else if ci >= 2 && reflect.DeepEqual(want.Stats, first[mi].Stats) {
					t.Fatalf("%s/%s: config %d runs like Scaled(2, 16), so a wrong reuse would not show", bench, mech, ci)
				}
				for _, tag := range []string{mech, ""} {
					runs = append(runs, run{k, opt, tag, want})
				}
			}
		}
	}
	p := NewEnginePool()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		order := append([]run(nil), runs...)
		order = append(order, runs...)
		rng := rand.New(rand.NewSource(int64(g)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range order {
				got, err := p.Run(r.k, r.opt, r.tag)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, r.want) {
					t.Errorf("run %d (%s, %d SMs, tag %q) diverges from fresh",
						i, r.k.Name, r.opt.Config.NumSM, r.tag)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEnginePoolAllocsAcrossMechanisms: one sequential pass of the Figs.
// 16-19 mechanisms over cp draws one engine and reinitializes it in place
// for each mechanism, so the pass allocates about one engine's worth
// (~2 MB), not one engine per mechanism (~10.6 MB when the pool was keyed
// by mechanism). GC is off so the pool keeps what it is given, and
// GOMAXPROCS is 1 so the goroutine cannot move to another P and miss the
// engine sync.Pool parked on the first.
func TestEnginePoolAllocsAcrossMechanisms(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	const limit = 3 << 20
	k, err := workloads.Build("cp", workloads.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	mechs := append([]string{"baseline"}, Fig16Order...)
	factories := make([]Factory, len(mechs))
	for i, m := range mechs {
		if factories[i], err = Mechanism(m); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewEnginePool()
	for i, m := range mechs {
		opt := sim.Options{Config: config.Scaled(4, 64), NewPrefetcher: factories[i]}
		if _, err := p.Run(k, opt, m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d mechanisms through one pool allocate %.2f MB", len(mechs), float64(got)/(1<<20))
	if got > limit {
		t.Errorf("a pass of %d mechanisms through a fresh pool allocates %.2f MB, want ≤ %.2f MB",
			len(mechs), float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}

// TestEnginePoolConcurrent shares one pool across goroutines running the
// same (kernel, mech) and checks each result against a fresh reference.
// Under -race this doubles as the pool's publication-safety check.
func TestEnginePoolConcurrent(t *testing.T) {
	cfg := config.Scaled(2, 16)
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	f, err := Mechanism("snake")
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.Options{Config: cfg, NewPrefetcher: f}
	want, err := sim.Run(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := NewEnginePool()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				got, err := p.Run(k, opt, "snake")
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent pooled run diverged from fresh reference")
					return
				}
			}
		}()
	}
	wg.Wait()
}
