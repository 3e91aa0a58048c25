package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"snake/internal/stats"
	"snake/internal/workloads"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	if _, err := quantile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond) accepted")
	}
	if _, err := quantile(seq(100), 0.9); err != nil {
		t.Errorf("p90 of 100 samples (10 beyond) rejected: %v", err)
	}
	if _, err := quantile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) accepted")
	}
}

func TestQuantileEstimates(t *testing.T) {
	xs := rand.New(rand.NewSource(1)).Perm(101)
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	if got, _ := quantile(fs, 0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("median of 0..100 = %v, want 50 (symmetric weights)", got)
	}
	if got, _ := quantile(fs, 0.9); got < 88 || got > 92 {
		t.Errorf("p90 of 0..100 = %v, want about 90", got)
	}
	// Two clusters with the rank between them: the estimate sits between
	// the clusters instead of snapping to either edge.
	var two []float64
	for i := 0; i < 100; i++ {
		v := 10.0
		if i >= 90 {
			v = 100
		}
		two = append(two, v)
	}
	if got, _ := quantile(two, 0.9); got <= 10 || got >= 100 {
		t.Errorf("p90 between clusters = %v, want strictly between 10 and 100", got)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	grid := func(seed int64) []cell {
		return shuffled(rand.New(rand.NewSource(seed)), gridCells(workloads.Names()))
	}
	sweeps := func(seed int64) [][]string {
		rng := rand.New(rand.NewSource(seed))
		var out [][]string
		for i := 0; i < 3; i++ {
			out = append(out, shuffled(rng, workloads.Names()), shuffled(rng, gridMechs))
		}
		return out
	}
	for name, gen := range map[string]func(int64) any{
		"grid order":   func(s int64) any { return grid(s) },
		"cold configs": func(s int64) any { return coldOps(s, 2) },
		"sweep perms":  func(s int64) any { return sweeps(s) },
	} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 drew two different inputs", name)
		}
		differ := false
		for s := int64(1); s <= 4; s++ {
			differ = differ || !reflect.DeepEqual(gen(7), gen(7+s))
		}
		if !differ {
			t.Errorf("%s: seeds 7..11 all drew the same input", name)
		}
	}
}

func TestColdOpsBalancedAndDistinct(t *testing.T) {
	ops := coldOps(3, 2)
	if want := len(coldBenches) * len(coldDepths) * len(coldIntra) * 2; len(ops) != want {
		t.Fatalf("%d ops, want %d", len(ops), want)
	}
	seen := map[string]bool{}
	for _, c := range ops {
		if seen[c.id()] {
			t.Errorf("cell %s drawn twice in one run", c.id())
		}
		seen[c.id()] = true
	}
}

func TestDigestRejectsFlippedCounter(t *testing.T) {
	st := &stats.Sim{Cycles: 1000, Insts: 2500, Loads: 400, L1: [5]int64{300, 20, 30, 40, 10}, DRAMReads: 70}
	r := refs{"c": refOf(st)}
	if err := r.checkStats("c", st); err != nil {
		t.Fatalf("unchanged stats rejected: %v", err)
	}
	if err := r.checkSummary("c", summarize(st)); err != nil {
		t.Fatalf("unchanged summary rejected: %v", err)
	}
	flipped := *st
	flipped.L1[3]++
	if r.checkStats("c", &flipped) == nil {
		t.Error("one flipped L1 counter passed the stats check")
	}
	flipped = *st
	flipped.Insts++
	if r.checkSummary("c", summarize(&flipped)) == nil {
		t.Error("one flipped instruction count passed the summary check")
	}
}

// TestRefsCoverEveryDrawableCell pins that refs.json holds a reference for
// every cell any seed can draw.
func TestRefsCoverEveryDrawableCell(t *testing.T) {
	r, err := loadRefs("refs.json")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, c := range gridCells(workloads.Names()) {
		ids = append(ids, c.id())
	}
	for _, b := range wideBenches {
		ids = append(ids, wideID(b))
	}
	for _, b := range coldBenches {
		for _, c := range coldSpace(b) {
			ids = append(ids, c.id())
		}
	}
	for _, id := range ids {
		if _, ok := r[id]; !ok {
			t.Errorf("no reference for %s", id)
		}
	}
	if len(r) != len(ids) {
		t.Errorf("refs.json has %d entries, the drawable cells are %d", len(r), len(ids))
	}
}
