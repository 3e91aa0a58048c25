package sim_test

import (
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// TestMuteSnakeMatchesBaseline is the negative control arm: a Snake with
// every prefetching component off (ChainsOnly drops the stride components,
// DisableChains the chain component) must leave the machine exactly as the
// baseline leaves it — coupled and decoupled alike. On every benchmark the
// aggregate and every per-SM counter block must equal the baseline's once
// the prefetch counters are zeroed. A difference means Snake's mere presence
// (its L1 storage wiring, its throttle, its per-cycle hook) perturbs the
// model, and every Snake-vs-baseline comparison would carry that artefact.
func TestMuteSnakeMatchesBaseline(t *testing.T) {
	cfg := config.Scaled(4, 64)
	sc := workloads.Scale{CTAs: 16, WarpsPerCTA: 8, Iters: 8}
	// mute runs the kernel on a fresh engine and returns its aggregate and
	// per-SM blocks with the prefetch counters zeroed.
	mute := func(k *trace.Kernel, opt sim.Options) (*sim.Result, stats.Sim, []stats.Sim) {
		t.Helper()
		en := sim.NewEngine()
		r, err := en.Run(k, opt)
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats
		st.Pf = stats.Prefetch{}
		per := en.PerSM()
		for i := range per {
			per[i].Pf = stats.Prefetch{}
		}
		return r, st, per
	}
	for _, bench := range workloads.Names() {
		k, err := workloads.Shared().Kernel(bench, sc)
		if err != nil {
			t.Fatal(err)
		}
		_, wantSt, wantPer := mute(k, sim.Options{Config: cfg})
		for _, decoupled := range []bool{true, false} {
			c := core.Defaults()
			c.ChainsOnly, c.DisableChains, c.DisableDecoupling = true, true, !decoupled
			res, gotSt, gotPer := mute(k, sim.Options{Config: cfg, NewPrefetcher: func(int) prefetch.Prefetcher { return core.New(c) }})
			if res.Stats.Pf.Issued != 0 {
				t.Errorf("%s decoupled=%v: mute Snake issued %d prefetches", bench, decoupled, res.Stats.Pf.Issued)
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Errorf("%s decoupled=%v: mute Snake diverges from baseline\n got:  %+v\n want: %+v", bench, decoupled, gotSt, wantSt)
			}
			if !reflect.DeepEqual(gotPer, wantPer) {
				t.Errorf("%s decoupled=%v: mute Snake's per-SM stats diverge from baseline", bench, decoupled)
			}
		}
	}
}
