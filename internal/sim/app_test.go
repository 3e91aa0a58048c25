package sim

import (
	"reflect"
	"testing"

	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// appCells are the (Parallelism, SlackWindow) pairs the app tests sweep:
// per-cycle serial, short epochs under the sharded barrier, and auto-length
// epochs up to one worker per unit — the same spread as the pooled matrix.
var appCells = []struct{ p, slack int }{{1, 1}, {4, 2}, {4, 0}, {12, 0}}

// buildTestApp assembles a workloads app for the parCfg machine.
func buildTestApp(t *testing.T, name string) *trace.App {
	t.Helper()
	a, err := workloads.BuildApp(name, workloads.Tiny(), parCfg().NumSM, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAppSingleLaunchBitIdentical is the refactor-safety oracle: every
// benchmark run as a trivial one-launch App must produce a Result
// bit-identical to the kernel Run path, for every mechanism, Parallelism and
// SlackWindow — the launch layer changed the engine's
// structure, not its semantics. The per-launch record must agree with the
// aggregate.
func TestAppSingleLaunchBitIdentical(t *testing.T) {
	for _, name := range workloads.Names() {
		k, err := workloads.Build(name, workloads.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		a := trace.SingleLaunch(k)
		for mech, pf := range parMechs() {
			for _, cell := range appCells {
				opt := Options{
					Config: parCfg(), NewPrefetcher: pf,
					Parallelism: cell.p, SlackWindow: cell.slack,
				}
				want, err := Run(k, opt)
				if err != nil {
					t.Fatalf("%s/%s kernel: %v", name, mech, err)
				}
				got, err := RunApp(a, opt)
				if err != nil {
					t.Fatalf("%s/%s app: %v", name, mech, err)
				}
				if !reflect.DeepEqual(got.Result, *want) {
					t.Errorf("%s/%s P=%d slack=%d: one-launch app diverges from kernel run\n got:  %+v\n want: %+v",
						name, mech, cell.p, cell.slack, got.Stats, want.Stats)
				}
				if len(got.Launches) != 1 {
					t.Fatalf("%s/%s: %d launch records, want 1", name, mech, len(got.Launches))
				}
				l := got.Launches[0]
				if l.StartCycle != 0 || l.RetireCycle <= 0 || l.RetireCycle > got.Stats.Cycles {
					t.Errorf("%s/%s: launch span [%d, %d] outside run of %d cycles",
						name, mech, l.StartCycle, l.RetireCycle, got.Stats.Cycles)
				}
				if l.Stats.Insts != want.Stats.Insts || l.Stats.Loads != want.Stats.Loads {
					t.Errorf("%s/%s: launch record insts/loads %d/%d, want %d/%d",
						name, mech, l.Stats.Insts, l.Stats.Loads, want.Stats.Insts, want.Stats.Loads)
				}
			}
		}
	}
}

// TestAppScenariosDeterministic: the multi-kernel and two-tenant scenarios
// produce bit-identical AppResults — per-launch records and tenant rollups
// included — at every Parallelism and SlackWindow setting, under both
// chain-persistence policies. Also pins the attribution invariant: execution
// windows partition the run, so per-launch insts/loads sum to the totals.
func TestAppScenariosDeterministic(t *testing.T) {
	pf := func(int) prefetch.Prefetcher { return core.NewSnake() }
	for _, app := range workloads.AppNames() {
		a := buildTestApp(t, app)
		for _, chain := range []bool{false, true} {
			ref, err := RunApp(a, Options{
				Config: parCfg(), NewPrefetcher: pf,
				Parallelism: 1, SlackWindow: 1, ChainPersistence: chain,
			})
			if err != nil {
				t.Fatalf("%s chain=%v ref: %v", app, chain, err)
			}
			var insts, loads int64
			for _, l := range ref.Launches {
				insts += l.Stats.Insts
				loads += l.Stats.Loads
			}
			if insts != ref.Stats.Insts || loads != ref.Stats.Loads {
				t.Errorf("%s chain=%v: launch insts/loads sum %d/%d, total %d/%d",
					app, chain, insts, loads, ref.Stats.Insts, ref.Stats.Loads)
			}
			for i, l := range ref.Launches {
				if l.RetireCycle <= l.StartCycle {
					t.Errorf("%s chain=%v launch %d: empty span [%d, %d]",
						app, chain, i, l.StartCycle, l.RetireCycle)
				}
			}
			for _, cell := range appCells {
				if cell.p == 1 && cell.slack == 1 {
					continue // the reference itself
				}
				got, err := RunApp(a, Options{
					Config: parCfg(), NewPrefetcher: pf,
					Parallelism: cell.p, SlackWindow: cell.slack,
					ChainPersistence: chain,
				})
				if err != nil {
					t.Fatalf("%s chain=%v P=%d slack=%d: %v", app, chain, cell.p, cell.slack, err)
				}
				// Result.Slack echoes the requested window, which differs
				// across cells by design; the oracle is the output.
				got.Slack = ref.Slack
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s chain=%v P=%d slack=%d diverges from serial\n got:  %+v\n want: %+v",
						app, chain, cell.p, cell.slack, got.Launches, ref.Launches)
				}
			}
		}
	}
}

// TestAppTenantRollups checks the two-tenant scenario's per-tenant split:
// both tenants appear, each rollup matches its launches, and the tenants
// genuinely overlapped in time (co-residency, not serialization).
func TestAppTenantRollups(t *testing.T) {
	a := buildTestApp(t, "cotenant")
	res, err := RunApp(a, Options{Config: parCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 || res.Tenants[0].ID != 0 || res.Tenants[1].ID != 1 {
		t.Fatalf("tenants = %+v, want IDs 0 and 1", res.Tenants)
	}
	for i, l := range res.Launches {
		tn := res.Tenants[l.Tenant]
		if tn.Launches != 1 || tn.Stats.Insts != l.Stats.Insts {
			t.Errorf("tenant %d rollup %+v does not match launch %d (%d insts)",
				l.Tenant, tn, i, l.Stats.Insts)
		}
	}
	l0, l1 := res.Launches[0], res.Launches[1]
	if l0.StartCycle != 0 || l1.StartCycle != 0 {
		t.Errorf("co-tenant launches start at %d and %d, want both 0", l0.StartCycle, l1.StartCycle)
	}
	if l0.RetireCycle == l1.RetireCycle {
		t.Log("tenants retired the same cycle (legal, just unusual)")
	}
}

// TestAppLaunchOrderTieBreak (launch-scheduler determinism): when two
// launches mature at the same cycle — here, two successors of one parent,
// both wanting the full machine — the scheduler dispatches them in App
// order, mirroring the (cycle, smID, seq) store-order discipline. Swapping
// the two launches in the App must swap the execution order, proving the
// position (not kernel content or arrival happenstance) decides.
func TestAppLaunchOrderTieBreak(t *testing.T) {
	lps, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	hot, err := workloads.Build("hotspot", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(first, second *trace.Kernel) *trace.App {
		return &trace.App{Name: "tie", Launches: []trace.KernelLaunch{
			{Kernel: lps},
			{Kernel: first, DependsOn: []int{0}},
			{Kernel: second, DependsOn: []int{0}},
		}}
	}
	cfg := parCfg()
	// Successors wake a turnaround delay after the parent's retire cycle
	// (launch.go retireScan): min(bound, TurnaroundCap).
	turn := int64(cfg.SlackBound())
	if turn > TurnaroundCap {
		turn = TurnaroundCap
	}
	for _, cell := range appCells {
		res, err := RunApp(mk(hot, lps), Options{
			Config: cfg, Parallelism: cell.p, SlackWindow: cell.slack,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := res.Launches
		if l[1].StartCycle != l[0].RetireCycle+turn {
			t.Errorf("P=%d slack=%d: first successor started at %d, want parent retire %d + turnaround %d",
				cell.p, cell.slack, l[1].StartCycle, l[0].RetireCycle, turn)
		}
		if l[2].StartCycle <= l[1].StartCycle {
			t.Errorf("P=%d slack=%d: launch 2 started at %d, not after launch 1 (%d) — App order violated",
				cell.p, cell.slack, l[2].StartCycle, l[1].StartCycle)
		}
		if l[2].StartCycle < l[1].RetireCycle {
			t.Errorf("P=%d slack=%d: launch 2 started at %d while launch 1 held the machine until %d",
				cell.p, cell.slack, l[2].StartCycle, l[1].RetireCycle)
		}
		// Swapped App: the same two kernels in the opposite positions must
		// execute in the opposite order (index 1 always first).
		swapped, err := RunApp(mk(lps, hot), Options{
			Config: cfg, Parallelism: cell.p, SlackWindow: cell.slack,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := swapped.Launches; s[1].Kernel != "lps" || s[1].StartCycle >= s[2].StartCycle {
			t.Errorf("P=%d slack=%d: swapped app ran %q first (start %d vs %d), App order must decide",
				cell.p, cell.slack, s[2].Kernel, s[1].StartCycle, s[2].StartCycle)
		}
	}
}

// TestAppChainPersistence pins the warm-up effect the launch layer exists to
// expose: relaunching a kernel with ChainPersistence keeps Snake's chain
// tables trained across the boundary, so later launches see coverage
// immediately; with flushing, every launch pays the training cost from
// scratch. The first launch must be bit-identical either way (the policy
// only touches scheduler activations), and the relaunches must prefetch
// strictly more under persistence.
func TestAppChainPersistence(t *testing.T) {
	a := buildTestApp(t, "warmup")
	run := func(chain bool) *AppResult {
		res, err := RunApp(a, Options{
			Config:           parCfg(),
			NewPrefetcher:    func(int) prefetch.Prefetcher { return core.NewSnake() },
			ChainPersistence: chain,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold, warm := run(false), run(true)
	if !reflect.DeepEqual(cold.Launches[0], warm.Launches[0]) {
		t.Errorf("first launch differs across chain policies:\n cold: %+v\n warm: %+v",
			cold.Launches[0], warm.Launches[0])
	}
	var coldLater, warmLater int64
	for i := 1; i < len(cold.Launches); i++ {
		coldLater += cold.Launches[i].Stats.Pf.Issued
		warmLater += warm.Launches[i].Stats.Pf.Issued
	}
	t.Logf("relaunch prefetches issued: flushed=%d persistent=%d", coldLater, warmLater)
	t.Logf("relaunch covered loads: flushed=%d persistent=%d",
		cold.Launches[1].Stats.Pf.Covered+cold.Launches[2].Stats.Pf.Covered,
		warm.Launches[1].Stats.Pf.Covered+warm.Launches[2].Stats.Pf.Covered)
	if warmLater <= coldLater {
		t.Errorf("persistent chains issued %d prefetches across relaunches, flushed %d — warm-up effect missing",
			warmLater, coldLater)
	}
}

// TestPooledAppEquivalenceMatrix extends the pooled matrix across the launch
// layer: one Engine cycled through (single-kernel → multi-kernel →
// two-tenant → single-kernel) must stay bit-identical to fresh engines at
// every cell — the machine recycles, the launch state rebuilds.
func TestPooledAppEquivalenceMatrix(t *testing.T) {
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	pipeline := buildTestApp(t, "pipeline")
	cotenant := buildTestApp(t, "cotenant")
	for mech, pf := range parMechs() {
		en := NewEngine()
		for _, cell := range appCells {
			opt := Options{
				Config: parCfg(), NewPrefetcher: pf,
				Parallelism: cell.p, SlackWindow: cell.slack,
				ChainPersistence: true,
			}
			check := func(step string, got, want any) {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s P=%d slack=%d: pooled engine diverges from fresh at %s",
						mech, step, cell.p, cell.slack, step)
				}
			}
			want, err := Run(k, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := en.RunTagged(k, opt, mech)
			if err != nil {
				t.Fatal(err)
			}
			check("single-kernel", got, want)
			wantPipe, err := RunApp(pipeline, opt)
			if err != nil {
				t.Fatal(err)
			}
			gotPipe, err := en.RunAppTagged(pipeline, opt, mech)
			if err != nil {
				t.Fatal(err)
			}
			check("multi-kernel", gotPipe, wantPipe)
			wantCo, err := RunApp(cotenant, opt)
			if err != nil {
				t.Fatal(err)
			}
			gotCo, err := en.RunAppTagged(cotenant, opt, mech)
			if err != nil {
				t.Fatal(err)
			}
			check("two-tenant", gotCo, wantCo)
			got, err = en.RunTagged(k, opt, mech)
			if err != nil {
				t.Fatal(err)
			}
			check("single-kernel-again", got, want)
		}
	}
}

// TestRunAppValidation: structural rejections surface before any cycle runs.
func TestRunAppValidation(t *testing.T) {
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := parCfg()
	bad := &trace.App{Name: "bad", Launches: []trace.KernelLaunch{
		{Kernel: k, SMMask: 1 << uint(cfg.NumSM)},
	}}
	if _, err := RunApp(bad, Options{Config: cfg}); err == nil {
		t.Error("mask beyond NumSM accepted")
	}
	if _, err := RunApp(&trace.App{Name: "empty"}, Options{Config: cfg}); err == nil {
		t.Error("empty app accepted")
	}
	loop := &trace.App{Name: "loop", Launches: []trace.KernelLaunch{
		{Kernel: k, DependsOn: []int{0}},
	}}
	if _, err := RunApp(loop, Options{Config: cfg}); err == nil {
		t.Error("self-dependency accepted")
	}
}
