package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"snake/internal/config"
	"snake/internal/sim"
	"snake/internal/workloads"
)

// TestHorizonAtTurnaroundGolden pins, to recorded digests, the statistics of
// configs whose horizon equals the turnaround (IcntLatency 1, 4 and 8, all
// within TurnaroundCap). There a delivered fill frees its in-flight slot at
// its own delivery sub-cycle, before that sub-cycle's request injection, and
// no epoch outlasts the turnaround, so the adaptive epoch cutter never
// engages. The golden matrices run only configs whose horizon is far past
// the turnaround. Four fills per partition make the in-flight cap bind, so
// the cycle each slot frees on moves the statistics; at the default cap of
// 1024 it moves nothing. The scale is one at which Snake's statistics differ
// from the baseline's on every pinned benchmark. Each run is repeated per
// cycle, which must reproduce the digest.
func TestHorizonAtTurnaroundGolden(t *testing.T) {
	want := map[string]string{
		"lps/baseline/1":     "4536257269d61360",
		"lps/baseline/4":     "5f4ab1d23d3ce4c8",
		"lps/baseline/8":     "05a40d4a22ffd0ff",
		"lps/snake/1":        "96a56d7fb2c585ef",
		"lps/snake/4":        "4892d7c3da759f43",
		"lps/snake/8":        "7c14216bb3e0fba6",
		"hotspot/baseline/1": "9e6ed045ab0d0483",
		"hotspot/baseline/4": "2af8c9431887ceb3",
		"hotspot/baseline/8": "e4c8d64dbff3d922",
		"hotspot/snake/1":    "032d15becf24f83c",
		"hotspot/snake/4":    "48c7ee80c7227ebb",
		"hotspot/snake/8":    "1dc3df5c8e88a7e2",
		"histo/baseline/1":   "a5b02d44d1236c53",
		"histo/baseline/4":   "053be7fd1e7afeb1",
		"histo/baseline/8":   "adfc1b6fc9b6703c",
		"histo/snake/1":      "02048b443788855f",
		"histo/snake/4":      "072287900e1a4403",
		"histo/snake/8":      "3883df552120a50c",
	}
	sc := workloads.Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 4}
	for _, bench := range []string{"lps", "hotspot", "histo"} {
		k, err := workloads.Build(bench, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, mech := range []string{"baseline", "snake"} {
			factory := testMechanism(t, mech)
			for _, lat := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/%s/%d", bench, mech, lat)
				cfg := config.Scaled(4, 8)
				cfg.IcntLatency = lat
				cfg.FillsPerPartition = 4
				if h, turn := sim.SlackSchedule(cfg); h != turn {
					t.Fatalf("%s: horizon %d, turnaround %d: the config no longer pins horizon = turnaround", name, h, turn)
				}
				for _, slack := range []int{0, 1} {
					res, err := sim.Run(k, sim.WithSlackWindow(sim.Options{Config: cfg, NewPrefetcher: factory}, slack))
					if err != nil {
						t.Fatalf("%s slack=%d: %v", name, slack, err)
					}
					b, err := json.Marshal(res.Stats)
					if err != nil {
						t.Fatal(err)
					}
					h := sha256.Sum256(b)
					if got := hex.EncodeToString(h[:8]); got != want[name] {
						t.Errorf("%s slack=%d: stats digest %s, want %s (cycles %d, insts %d)", name, slack, got, want[name], res.Stats.Cycles, res.Stats.Insts)
					}
				}
			}
		}
	}
}
