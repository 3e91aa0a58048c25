package sim

import (
	"strings"
	"testing"

	"snake/internal/cache"
	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/stats"
	"snake/internal/trace"
	"snake/internal/workloads"
)

func tinyCfg() config.GPU { return config.Scaled(2, 8) }

func runTiny(t *testing.T, k *trace.Kernel, pf func(int) prefetch.Prefetcher) *Result {
	t.Helper()
	res, err := Run(k, Options{Config: tinyCfg(), NewPrefetcher: pf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestRunCompletesAndCountsInstructions(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	res := runTiny(t, k, nil)
	if res.Stats.Insts != int64(k.TotalInsts()) {
		t.Errorf("retired %d instructions, kernel has %d", res.Stats.Insts, k.TotalInsts())
	}
	if res.Stats.Loads != int64(k.TotalLoads()) {
		t.Errorf("retired %d loads, kernel has %d", res.Stats.Loads, k.TotalLoads())
	}
	if res.Stats.Cycles <= 0 {
		t.Error("no cycles simulated")
	}
}

func TestAllWorkloadsCompleteUnderAllMechanisms(t *testing.T) {
	mechs := map[string]func(int) prefetch.Prefetcher{
		"baseline": nil,
		"mta":      func(int) prefetch.Prefetcher { return prefetch.NewMTA() },
		"snake":    func(int) prefetch.Prefetcher { return core.NewSnake() },
		"ideal":    func(int) prefetch.Prefetcher { return prefetch.NewIdeal() },
	}
	for _, name := range workloads.Names() {
		k, err := workloads.Build(name, workloads.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		want := int64(k.TotalInsts())
		for mech, pf := range mechs {
			res := runTiny(t, k, pf)
			if res.Stats.Insts != want {
				t.Errorf("%s/%s: retired %d != %d", name, mech, res.Stats.Insts, want)
			}
		}
	}
}

func TestPrefetchingImprovesStreamKernel(t *testing.T) {
	k := workloads.StreamMicro(workloads.Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 16}, 512)
	base := runTiny(t, k, nil)
	sn := runTiny(t, k, func(int) prefetch.Prefetcher { return core.NewSnake() })
	if sn.Stats.IPC() <= base.Stats.IPC() {
		t.Errorf("Snake IPC %.3f did not beat baseline %.3f on a stream kernel",
			sn.Stats.IPC(), base.Stats.IPC())
	}
	if sn.Stats.Coverage() < 0.5 {
		t.Errorf("Snake coverage %.2f on a perfectly regular stream", sn.Stats.Coverage())
	}
}

func TestIdealDominatesOnRegularKernel(t *testing.T) {
	k := workloads.StreamMicro(workloads.Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 16}, 512)
	base := runTiny(t, k, nil)
	ideal := runTiny(t, k, func(int) prefetch.Prefetcher { return prefetch.NewIdeal() })
	if ideal.Stats.IPC() <= base.Stats.IPC() {
		t.Errorf("Ideal IPC %.3f <= baseline %.3f", ideal.Stats.IPC(), base.Stats.IPC())
	}
	if ideal.Stats.Accuracy() < 0.8 {
		t.Errorf("Ideal accuracy %.2f; magic prefetches must be timely", ideal.Stats.Accuracy())
	}
}

func TestNoPrefetcherGainOnRandomKernel(t *testing.T) {
	k := workloads.RandomMicro(workloads.Tiny())
	sn := runTiny(t, k, func(int) prefetch.Prefetcher { return core.NewSnake() })
	if sn.Stats.Coverage() > 0.15 {
		t.Errorf("Snake claims %.2f coverage on random addresses", sn.Stats.Coverage())
	}
}

func TestValidationErrors(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	bad := tinyCfg()
	bad.NumSM = 0
	if _, err := Run(k, Options{Config: bad}); err == nil {
		t.Error("invalid config accepted")
	}
	empty := &trace.Kernel{Name: "empty"}
	if _, err := Run(empty, Options{Config: tinyCfg()}); err == nil {
		t.Error("invalid kernel accepted")
	}
	// CTA wider than an SM's warp slots must be rejected.
	wide, _ := workloads.Build("lps", workloads.Scale{CTAs: 1, WarpsPerCTA: 64, Iters: 2})
	cfg := config.Scaled(1, 8)
	if _, err := Run(wide, Options{Config: cfg}); err == nil {
		t.Error("CTA wider than SM accepted")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	k := workloads.StreamMicro(workloads.DefaultScale(), 512)
	opt := Options{Config: tinyCfg(), MaxCycles: 100}
	_, err := Run(k, opt)
	if err == nil || !strings.Contains(err.Error(), "exceeded MaxCycles=100") {
		t.Fatalf("err = %v, want exceeded MaxCycles=100", err)
	}
	// The epoch cutter clamps every epoch to MaxCycles, so the loop stops on
	// exactly that cycle, never past it.
	e := newEngine(k, opt)
	if err := e.run(); err == nil {
		t.Fatal("white-box run: expected MaxCycles error")
	}
	if e.cycle != 100 {
		t.Errorf("engine stopped at cycle %d, want exactly MaxCycles=100", e.cycle)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Two warps: one fast, one slow; both must pass the barrier together.
	mk := func(lats ...int) trace.WarpProgram {
		b := trace.NewBuilder()
		for _, lat := range lats {
			b.Compute(0, lat)
		}
		b.Barrier(8)
		b.Compute(16, 1)
		return b.Exit(24)
	}
	w0, w1 := mk(1), mk(100, 100)
	w1.IDInCTA = 1
	k := &trace.Kernel{Name: "barrier-test", CTAs: []trace.CTA{{Warps: []trace.WarpProgram{w0, w1}}}}
	res := runTiny(t, k, nil)
	// The fast warp waits for the slow one: runtime >= 200 cycles.
	if res.Stats.Cycles < 200 {
		t.Errorf("cycles = %d; barrier did not hold the fast warp", res.Stats.Cycles)
	}
}

func TestPerSMStatsSumToTotal(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	res := runTiny(t, k, nil)
	var insts int64
	for i := range res.PerSM {
		insts += res.PerSM[i].Insts
	}
	if insts != res.Stats.Insts {
		t.Errorf("per-SM instruction sum %d != total %d", insts, res.Stats.Insts)
	}
}

func TestSchedulerPolicyAffectsExecution(t *testing.T) {
	k := workloads.StreamMicro(workloads.Scale{CTAs: 4, WarpsPerCTA: 4, Iters: 8}, 512)
	cfgGTO := tinyCfg()
	cfgLRR := tinyCfg()
	cfgLRR.Scheduler = config.SchedLRR
	a, err := Run(k, Options{Config: cfgGTO})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(k, Options{Config: cfgLRR})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Insts != b.Stats.Insts {
		t.Errorf("different schedulers retired different instruction counts: %d vs %d",
			a.Stats.Insts, b.Stats.Insts)
	}
}

func TestStallClassificationAccumulates(t *testing.T) {
	k, _ := workloads.Build("lib", workloads.Tiny())
	res := runTiny(t, k, nil)
	if res.Stats.StallMemory == 0 {
		t.Error("memory-bound kernel recorded no memory stalls")
	}
}

func TestDeterminism(t *testing.T) {
	k, _ := workloads.Build("hotspot", workloads.Tiny())
	a := runTiny(t, k, func(int) prefetch.Prefetcher { return core.NewSnake() })
	b := runTiny(t, k, func(int) prefetch.Prefetcher { return core.NewSnake() })
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Insts != b.Stats.Insts ||
		a.Stats.Pf.Issued != b.Stats.Pf.Issued {
		t.Errorf("simulation not deterministic: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestSharedMemoryCarveOutShrinksCache(t *testing.T) {
	k, _ := workloads.Build("lps", workloads.Tiny())
	big := tinyCfg()
	big.SharedMemPer = 0
	small := tinyCfg()
	small.SharedMemPer = 96 * 1024
	a, err := Run(k, Options{Config: big})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(k, Options{Config: small})
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.L1HitRate() > a.Stats.L1HitRate()+1e-9 {
		t.Errorf("smaller data cache produced a higher hit rate: %.3f vs %.3f",
			b.Stats.L1HitRate(), a.Stats.L1HitRate())
	}
}

func TestOutcomeMapping(t *testing.T) {
	cases := map[stats.L1Outcome]bool{} // placeholder to use stats import
	_ = cases
	for _, tc := range []struct {
		in   int
		want prefetch.Outcome
	}{
		{0, prefetch.OutcomeIssued},
		{1, prefetch.OutcomeDuplicate},
		{2, prefetch.OutcomeNoRoom},
		{3, prefetch.OutcomeNoSpace},
	} {
		if got := outcomeOf(cacheOutcome(tc.in)); got != tc.want {
			t.Errorf("outcomeOf(%d) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// cacheOutcome converts an int to the cache package's outcome type for the
// mapping test.
func cacheOutcome(i int) cache.PrefetchOutcome { return cache.PrefetchOutcome(i) }

func TestThrottleCyclesReported(t *testing.T) {
	// Snake's halted cycles must surface in the aggregated stats.
	k, _ := workloads.Build("lib", workloads.Tiny())
	res := runTiny(t, k, func(int) prefetch.Prefetcher { return core.NewSnake() })
	// lib saturates the response network, so the bandwidth throttle engages.
	if res.Stats.Pf.ThrottleCycles == 0 {
		t.Log("no throttle cycles on lib at tiny scale (acceptable)")
	}
	// The field must never be negative and must not exceed total cycles x SMs.
	max := res.Stats.Cycles * int64(len(res.PerSM))
	if res.Stats.Pf.ThrottleCycles < 0 || res.Stats.Pf.ThrottleCycles > max {
		t.Errorf("ThrottleCycles = %d out of range [0,%d]", res.Stats.Pf.ThrottleCycles, max)
	}
}
