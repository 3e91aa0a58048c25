package main

import (
	"fmt"
	"math/rand"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/workloads"
)

// The Fig. 18 machine: the harness's standard 4 SMs x 64 warps at the
// default workload scale, which is also what snaked serves by default.
var (
	gridCfg   = config.Scaled(4, 64)
	gridScale = workloads.DefaultScale()
	gridMechs = append([]string{"baseline"}, harness.Fig16Order...)
)

// cell is one (benchmark, mechanism) point of the Fig. 18 grid.
type cell struct{ bench, mech string }

func (c cell) id() string { return "grid/" + c.bench + "/" + c.mech }

// gridCells returns the whole grid in Table 2 x Fig. 16 order.
func gridCells(benches []string) []cell {
	var out []cell
	for _, b := range benches {
		for _, m := range gridMechs {
			out = append(out, cell{b, m})
		}
	}
	return out
}

// shuffled returns a seeded permutation of xs, leaving xs untouched.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// The svc-cold design space: the Snake knobs of Figs. 20-23 on the seven
// Table 2 benchmarks whose cells cost 25-60 ms each on the 4x64 machine. With
// those, per-op latency forms one cluster; across all eleven it forms a
// cluster per benchmark, and a percentile that falls between two clusters
// jumps from run to run. The space is finite so that refs.json holds a
// reference for every cell a seed can draw, and large enough (72 points per
// benchmark) that one run never draws a cell twice.
var (
	coldBenches   = []string{"backprop", "srad", "lps", "hotspot", "mrq", "nw", "lud"}
	coldTails     = []int{3, 5, 10, 20}
	coldDepths    = []int{1, 2, 4}
	coldThrottles = []int{25, 50, 100}
	coldIntra     = []int{1, 2}
)

// coldCell is one custom Snake configuration on one Table 2 benchmark.
type coldCell struct {
	bench string
	cfg   core.Config
}

func (c coldCell) id() string {
	return fmt.Sprintf("cold/%s/tail%d-depth%d-throttle%d-intra%d",
		c.bench, c.cfg.TailEntries, c.cfg.ChainDepth, c.cfg.ThrottleCycles, c.cfg.IntraDegree)
}

// coldConfig is one design point: the paper defaults with the four knobs
// set, fully specified so the request snaked receives is exactly the
// configuration the reference simulated.
func coldConfig(tail, depth, throttle, intra int) core.Config {
	cfg := core.Defaults()
	cfg.TailEntries, cfg.ChainDepth, cfg.ThrottleCycles, cfg.IntraDegree = tail, depth, throttle, intra
	return cfg
}

// coldSpace returns every design point for bench.
func coldSpace(bench string) []coldCell {
	var out []coldCell
	for _, t := range coldTails {
		for _, d := range coldDepths {
			for _, th := range coldThrottles {
				for _, in := range coldIntra {
					out = append(out, coldCell{bench, coldConfig(t, d, th, in)})
				}
			}
		}
	}
	return out
}

// coldOps draws the svc-cold op set. Chain depth and intra-warp degree decide
// how much a configuration prefetches, and so its host time: every
// (benchmark, depth, degree) combination appears repeats times, each with a
// distinct (tail entries, throttle) point drawn from the seed. The seed
// changes which configurations run, never the mix of work.
func coldOps(seed int64, repeats int) []coldCell {
	rng := rand.New(rand.NewSource(seed))
	type knobs struct{ tail, throttle int }
	var free []knobs
	for _, t := range coldTails {
		for _, th := range coldThrottles {
			free = append(free, knobs{t, th})
		}
	}
	repeats = min(repeats, len(free))
	var out []coldCell
	for _, b := range coldBenches {
		for _, d := range coldDepths {
			for _, in := range coldIntra {
				for _, k := range shuffled(rng, free)[:repeats] {
					out = append(out, coldCell{b, coldConfig(k.tail, d, k.throttle, in)})
				}
			}
		}
	}
	return shuffled(rng, out)
}
