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
// hash, so every field of the content key must tell keys apart. Sweeps over
// benchmarks, registry mechanisms, and GPU and scale overrides, each sent
// twice, must show every cell the harness.RunKey hash of its own spec, and
// hold one record per distinct key.
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
	keys := map[string]bool{}
	for round := 0; round < 2; round++ {
		for _, req := range reqs {
			_, jobs, err := svc.SubmitSweep(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				v := j.view()
				k := harness.RunKey{Bench: v.Bench, Mech: v.Mech, GPU: svc.gpu, Scale: svc.scale}
				if req.GPU != nil {
					k.GPU = *req.GPU
				}
				if req.Scale != nil {
					k.Scale = *req.Scale
				}
				if want := k.Hash(); v.Key != want {
					t.Errorf("round %d, %+v: %s/%s has key %s, want %s",
						round, req, v.Bench, v.Mech, v.Key, want)
				}
				keys[v.Key] = true
			}
		}
	}
	svc.mu.Lock()
	records := len(svc.records)
	svc.mu.Unlock()
	// req 0: 4 keys; 1: none (repeats req 0's); 2, 3 and 4: 2 each.
	if want := 4 + 3*2; records != want || len(keys) != want {
		t.Errorf("%d records and %d distinct keys, want %d", records, len(keys), want)
	}
}

// TestCustomSnakeSignedZeroKeys: custom Snake configs differing only in the
// sign of a zero compare equal in Go but marshal, and so hash, apart. They
// keep distinct keys and records, as they always had, and a repeat of
// either shares its record.
func TestCustomSnakeSignedZeroKeys(t *testing.T) {
	svc := tinyService(1)
	defer shutdown(t, svc)
	pos, neg := core.Defaults(), core.Defaults()
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
	jp, jn, jp2 := jobFor(pos), jobFor(neg), jobFor(pos)
	for _, c := range []struct {
		j   *job
		cfg core.Config
	}{{jp, pos}, {jn, neg}} {
		want := harness.RunKey{Bench: "cp", Mech: "snake:custom", Snake: &c.cfg, GPU: svc.gpu, Scale: svc.scale}.Hash()
		if c.j.rec.key != want {
			t.Errorf("BWHalt %v: key %s, want %s", c.cfg.BWHalt, c.j.rec.key, want)
		}
	}
	if jp.rec == jn.rec || jp.rec.key == jn.rec.key {
		t.Error("BWHalt 0 and -0 share a record or key")
	}
	if jp2.rec != jp.rec {
		t.Error("a repeated custom config got a second record")
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
