package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
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
// no scale, "scale":{} and a scale spelling out default values simulate the
// same kernel, and "snake":{}, the spelled-out defaults and a part of them
// the same prefetcher, core.Defaults(): each group shares one key and one
// record. "scale":{"Iters":-5} is rejected, not read as the default.
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

	// Admitted, not run: these cells are at the default scale. Each group
	// spells one simulation's overrides differently, decoded as the
	// handlers decode them.
	def := New(Options{Workers: 1, GPU: &gpu})
	defer shutdown(t, def)
	decode := func(body string) SweepRequest {
		t.Helper()
		var req SweepRequest
		if err := def.decodeRequest(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(body)), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return req
	}
	defaults, err := json.Marshal(core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	paper := core.Defaults()
	paperKey := harness.RunKey{Bench: "cp", Mech: harness.CustomSnake, Snake: &paper, GPU: gpu, Scale: workloads.DefaultScale()}.Hash()
	for _, group := range []struct {
		bodies []string
		keys   int
		has    string // a key the group must hold, or ""
	}{
		{[]string{
			`{"benches":["cp"],"mechs":["baseline","snake"]}`,
			`{"benches":["cp"],"mechs":["baseline","snake"],"scale":{}}`,
			`{"benches":["cp"],"mechs":["baseline","snake"],"scale":{"CTAs":48,"Iters":12}}`,
		}, len(mechs), ""},
		{[]string{
			`{"benches":["cp"],"snake":{}}`,
			`{"benches":["cp"],"snake":` + string(defaults) + `}`,
			`{"benches":["cp"],"snake":{"InterWarpDegree":2,"BWHalt":0.7}}`,
		}, 1, paperKey},
	} {
		before := records(def)
		groupKeys := map[string]bool{}
		for _, body := range group.bodies {
			req := decode(body)
			specs, err := def.sweepSpecs(req)
			if err != nil {
				t.Fatal(err)
			}
			def.mu.Lock()
			for _, sp := range specs {
				v := def.newJobLocked(sp, "").view()
				if w := want(def, req, v); v.Key != w {
					t.Errorf("%s: %s/%s has key %s, want %s", body, v.Bench, v.Mech, v.Key, w)
				}
				groupKeys[v.Key] = true
			}
			def.mu.Unlock()
		}
		if got := records(def) - before; got != group.keys || len(groupKeys) != group.keys {
			t.Errorf("%s and its equivalents: %d records and %d keys, want %d", group.bodies[0], got, len(groupKeys), group.keys)
		}
		if group.has != "" && !groupKeys[group.has] {
			t.Errorf("%s and its equivalents: keys %v, want %s among them", group.bodies[0], groupKeys, group.has)
		}
	}
	if _, err := def.sweepSpecs(decode(`{"benches":["cp"],"mechs":["baseline"],"scale":{"Iters":-5}}`)); err == nil || !strings.Contains(err.Error(), "Iters -5") {
		t.Errorf(`"scale":{"Iters":-5}: %v, want an error naming Iters -5`, err)
	}
}

// TestCustomSnakeSignedZeroKeys: BWHalt 0 and -0 compare equal in Go, and
// so run alike, but marshal apart. The canonical key writes -0 as 0, so the
// two share one key and one record: BWHalt 0's, a real threshold distinct
// from the default 0.70.
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
	key := func(cfg core.Config) string {
		return harness.RunKey{Bench: "cp", Mech: harness.CustomSnake, Snake: &cfg, GPU: svc.runner.Cfg, Scale: svc.runner.Scale}.Hash()
	}
	if jn.rec != jp.rec || jp.rec.key != key(pos) {
		t.Errorf("BWHalt -0 keys %s and 0 keys %s, want both %s in one record", jn.rec.key, jp.rec.key, key(pos))
	}
	if jd.rec == jp.rec || jd.rec.key != key(def) {
		t.Errorf("BWHalt 0.70 keys %s, want %s in its own record", jd.rec.key, key(def))
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
