package service

import (
	"context"
	"math"
	"testing"
	"time"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/workloads"
)

func shutdown(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Error(err)
	}
}

// TestRecordKeysMatchRunKey: a job finds its record by content, not by
// hash, so every field of the content key must tell keys apart, and keys
// that name one simulation must not. Sweeps over benchmarks, registry
// mechanisms, and GPU and scale overrides, each sent twice, must show every
// cell the harness.RunKey hash of its own normalized key, and hold one
// record per distinct key. On a service at the default scale, a request with
// no scale, "scale":{} and "scale":{"Iters":-5} simulate the same kernel, and
// "snake":{} the same prefetcher as the defaults with InterWarpDegree 0:
// each group shares one key and one record.
func TestRecordKeysMatchRunKey(t *testing.T) {
	svc := tinyService(2)
	defer shutdown(t, svc)
	gpu := config.Scaled(4, 8)
	scale := workloads.Scale{CTAs: 2, WarpsPerCTA: 2, Iters: 2}
	mechs := []string{"baseline", "snake"}
	reqs := []SweepRequest{
		{Benches: []string{"cp", "lps"}, Mechs: mechs},
		{Benches: []string{"lps"}, Mechs: mechs},
		{Benches: []string{"cp"}, Mechs: mechs, GPU: &gpu},
		{Benches: []string{"cp"}, Mechs: mechs, Scale: &scale},
		{Benches: []string{"cp"}, Mechs: mechs, GPU: &gpu, Scale: &scale},
	}
	// want is the hash of the request cell's normalized key.
	want := func(svc *Service, req SweepRequest, v RunView) string {
		t.Helper()
		k := svc.runner.Key(v.Bench, v.Mech)
		k.Snake = req.Snake
		if req.GPU != nil {
			k.GPU = *req.GPU
		}
		if req.Scale != nil {
			k.Scale = *req.Scale
		}
		k, err := k.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return k.Hash()
	}
	records := func(svc *Service) int {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(svc.records)
	}
	keys := map[string]bool{}
	for round := 0; round < 2; round++ {
		for _, req := range reqs {
			_, jobs, err := svc.SubmitSweep(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				v := j.view()
				if w := want(svc, req, v); v.Key != w {
					t.Errorf("round %d, %+v: %s/%s has key %s, want %s",
						round, req, v.Bench, v.Mech, v.Key, w)
				}
				keys[v.Key] = true
			}
		}
	}
	// req 0: 4 keys; 1: none (repeats req 0's); 2, 3 and 4: 2 each.
	if w := 4 + 3*2; records(svc) != w || len(keys) != w {
		t.Errorf("%d records and %d distinct keys, want %d", records(svc), len(keys), w)
	}

	// Admitted, not run: these cells are at the default scale.
	def := New(Options{Workers: 1, GPU: &gpu})
	defer shutdown(t, def)
	noInterWarp := core.Defaults()
	noInterWarp.InterWarpDegree = 0
	for _, group := range []struct {
		reqs []SweepRequest
		keys int
	}{
		{[]SweepRequest{
			{Benches: []string{"cp"}, Mechs: mechs},
			{Benches: []string{"cp"}, Mechs: mechs, Scale: &workloads.Scale{}},
			{Benches: []string{"cp"}, Mechs: mechs, Scale: &workloads.Scale{Iters: -5}},
		}, len(mechs)},
		{[]SweepRequest{
			{Benches: []string{"cp"}, Snake: &noInterWarp},
			{Benches: []string{"cp"}, Snake: &core.Config{}},
		}, 1},
	} {
		before := records(def)
		groupKeys := map[string]bool{}
		for _, req := range group.reqs {
			specs, err := def.sweepSpecs(req)
			if err != nil {
				t.Fatal(err)
			}
			def.mu.Lock()
			for _, sp := range specs {
				v := def.newJobLocked(sp, "").view()
				if w := want(def, req, v); v.Key != w {
					t.Errorf("%+v: %s/%s has key %s, want %s", req, v.Bench, v.Mech, v.Key, w)
				}
				groupKeys[v.Key] = true
			}
			def.mu.Unlock()
		}
		if got := records(def) - before; got != group.keys || len(groupKeys) != group.keys {
			t.Errorf("%+v and its equivalents: %d records and %d keys, want %d", group.reqs[0], got, len(groupKeys), group.keys)
		}
	}
}

// TestCustomSnakeSignedZeroKeys: BWHalt 0 and -0 compare equal in Go but
// marshal apart. Both mean "the default threshold", so the canonical key
// replaces either with 0.70: 0, -0 and the default share one key and one
// record.
func TestCustomSnakeSignedZeroKeys(t *testing.T) {
	svc := tinyService(1)
	defer shutdown(t, svc)
	def, pos, neg := core.Defaults(), core.Defaults(), core.Defaults()
	pos.BWHalt, neg.BWHalt = 0, math.Copysign(0, -1)
	jobFor := func(cfg core.Config) *job {
		t.Helper()
		sp, err := svc.normalize(RunRequest{Bench: "cp", Snake: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.newJobLocked(sp, "")
	}
	jd, jp, jn := jobFor(def), jobFor(pos), jobFor(neg)
	want := harness.RunKey{Bench: "cp", Mech: harness.CustomSnake, Snake: &def, GPU: svc.runner.Cfg, Scale: svc.runner.Scale}.Hash()
	for _, j := range []*job{jd, jp, jn} {
		if j.rec != jd.rec || j.rec.key != want {
			t.Errorf("key %s, want the default's %s in one record", j.rec.key, want)
		}
	}
}

// TestSweepAdmissionAllocs bounds what admitting a cell costs the heap once
// its key has a record: normalizing it and creating its job, with no RunKey
// hash. A re-submitted registry sweep of the Fig. 18 grid must take at most
// 6 allocations per cell.
func TestSweepAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	svc := tinyService(1)
	defer shutdown(t, svc)
	req := SweepRequest{Benches: workloads.Names(), Mechs: append([]string{"baseline"}, harness.Fig16Order...)}
	cells := len(req.Benches) * len(req.Mechs)
	admit := func() {
		specs, err := svc.sweepSpecs(req)
		if err != nil {
			t.Fatal(err)
		}
		svc.mu.Lock()
		defer svc.mu.Unlock()
		for _, sp := range specs {
			svc.newJobLocked(sp, "")
		}
	}
	admit() // the grid's records
	const bound = 6
	got := testing.AllocsPerRun(20, admit) / float64(cells)
	t.Logf("%.2f allocations per admitted cell", got)
	if got > bound {
		t.Errorf("%.2f allocations per admitted cell, want ≤ %d", got, bound)
	}
}
