package harness

import (
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/sim"
	"snake/internal/stats"
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
	mute := func(r *sim.Result) (stats.Sim, []stats.Sim) {
		st := r.Stats
		st.Pf = stats.Prefetch{}
		per := make([]stats.Sim, len(r.PerSM))
		for i, s := range r.PerSM {
			s.Pf = stats.Prefetch{}
			per[i] = s
		}
		return st, per
	}
	for _, bench := range workloads.Names() {
		k, err := workloads.Shared().Kernel(bench, sc)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.Run(k, sim.Options{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		wantSt, wantPer := mute(base)
		for _, decoupled := range []bool{true, false} {
			c := core.Defaults()
			c.ChainsOnly, c.DisableChains, c.DisableDecoupling = true, true, !decoupled
			res, err := sim.Run(k, sim.Options{Config: cfg, NewPrefetcher: func(int) prefetch.Prefetcher { return core.New(c) }})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Pf.Issued != 0 {
				t.Errorf("%s decoupled=%v: mute Snake issued %d prefetches", bench, decoupled, res.Stats.Pf.Issued)
			}
			gotSt, gotPer := mute(res)
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Errorf("%s decoupled=%v: mute Snake diverges from baseline\n got:  %+v\n want: %+v", bench, decoupled, gotSt, wantSt)
			}
			if !reflect.DeepEqual(gotPer, wantPer) {
				t.Errorf("%s decoupled=%v: mute Snake's per-SM stats diverge from baseline", bench, decoupled)
			}
		}
	}
}
