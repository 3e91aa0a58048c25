package harness

import (
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/energy"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// gpuLeaf is one leaf field of config.GPU: its dotted name and the index
// path reflect.Value.FieldByIndex takes.
type gpuLeaf struct {
	name  string
	index []int
}

// gpuLeaves walks config.GPU's struct tree and returns every leaf field.
func gpuLeaves(t reflect.Type, prefix string, index []int) []gpuLeaf {
	var out []gpuLeaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, gpuLeaves(f.Type, prefix+f.Name+".", idx)...)
			continue
		}
		out = append(out, gpuLeaf{prefix + f.Name, idx})
	}
	return out
}

// perturbations returns the values tried for a leaf whose value is v: the
// other scheduler policies for a policy, and for an int the extremes and
// neighbours of v (Validate decides which of them describe a machine).
func perturbations(v reflect.Value) []any {
	switch v.Kind() {
	case reflect.String:
		var out []any
		for _, p := range []config.SchedulerPolicy{config.SchedGTO, config.SchedLRR, config.SchedOldest} {
			if string(p) != v.String() {
				out = append(out, p)
			}
		}
		return out
	case reflect.Int:
		n := int(v.Int())
		var out []any
		seen := map[int]bool{n: true}
		for _, c := range []int{1, n / 2, n / 4, 2 * n, 4 * n, 0, n + 1, n - 1} {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		return out
	}
	return nil
}

// TestEveryGPUFieldIsRead pins that config.GPU declares only what the engine
// models. For every leaf field some perturbation that Validate accepts must
// change the content address (RunKey.Hash) and the Result.Stats of at least
// one of a few small runs. CoreClockMHz is the one field no simulation
// reads: it converts cycles to seconds, so it must change the energy
// estimate instead. A field that passes Validate, re-keys the cache and
// changes nothing would claim to model what the engine ignores.
func TestEveryGPUFieldIsRead(t *testing.T) {
	// A machine with no shared-memory carve-out (so the unified size can
	// halve) and a narrow port (so stores and requests contend for it).
	narrow := config.Scaled(2, 16)
	narrow.SharedMemPer = 0
	narrow.IcntBytesPerCycle = 16
	runs := []struct {
		bench, mech string
		cfg         config.GPU
	}{
		{"lps", "baseline", config.Scaled(2, 16)},
		{"hotspot", "snake", config.Scaled(2, 16)},
		{"srad", "baseline", narrow},
	}
	// Two 8-warp CTAs fill an SM's 16 warp slots, so the scheduler and warp
	// residency matter, and the footprint exceeds a halved L2.
	sc := workloads.Scale{CTAs: 8, WarpsPerCTA: 8, Iters: 8}
	run := func(i int, g config.GPU) (stats.Sim, bool) {
		r := runs[i]
		k, err := workloads.Shared().Kernel(r.bench, sc)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Mechanism(r.mech)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(k, sim.Options{Config: g, NewPrefetcher: f, MaxCycles: 1_000_000})
		if err != nil {
			return stats.Sim{}, false
		}
		return res.Stats, true
	}
	base := make([]stats.Sim, len(runs))
	for i, r := range runs {
		st, ok := run(i, r.cfg)
		if !ok {
			t.Fatalf("base run %s/%s failed", r.bench, r.mech)
		}
		base[i] = st
	}

	leaves := gpuLeaves(reflect.TypeOf(config.GPU{}), "", nil)
	for _, leaf := range leaves {
		read, accepted := false, false
		for _, val := range perturbations(reflect.ValueOf(runs[0].cfg).FieldByIndex(leaf.index)) {
			for i, r := range runs {
				g := r.cfg
				fv := reflect.ValueOf(&g).Elem().FieldByIndex(leaf.index)
				fv.Set(reflect.ValueOf(val).Convert(fv.Type()))
				if g.Validate() != nil {
					continue
				}
				accepted = true
				key := RunKey{Bench: r.bench, Mech: r.mech, GPU: r.cfg, Scale: sc}
				moved := key
				moved.GPU = g
				if key.Hash() == moved.Hash() {
					t.Errorf("%s = %v does not change RunKey.Hash", leaf.name, val)
				}
				if leaf.name == "CoreClockMHz" {
					m := energy.Default()
					read = m.Estimate(&base[i], g, false) != m.Estimate(&base[i], r.cfg, false)
				} else if st, ok := run(i, g); ok {
					read = st != base[i]
				}
				if read {
					t.Logf("%s = %v changes %s/%s", leaf.name, val, r.bench, r.mech)
					break
				}
			}
			if read {
				break
			}
		}
		switch {
		case !accepted:
			t.Errorf("%s: Validate accepts none of its perturbations", leaf.name)
		case !read:
			t.Errorf("%s: no perturbation Validate accepts changes any run: nothing models it", leaf.name)
		}
	}
}
