// Package workloads generates synthetic per-warp instruction/address traces
// reproducing the access structure of the paper's benchmark suite (Table 2):
// CP, LPS, LIB, MUM from ISPASS; Backprop, Hotspot, Srad, lud, nw from
// Rodinia; histo and MRQ from Parboil. Each generator documents the pattern
// it reproduces and which prefetching mechanisms it favours; the shapes of
// the paper's figures emerge from these structures rather than from any
// per-mechanism tuning.
package workloads

import (
	"fmt"
	"sort"

	"snake/internal/trace"
)

// Byte-size helpers.
const (
	kb = 1 << 10
	mb = 1 << 20
)

// lineBytes is the cache-line granularity the generators assume (Table 1).
const lineBytes = 128

// Scale controls workload size. Experiments use DefaultScale; tests shrink
// it for speed.
type Scale struct {
	CTAs        int
	WarpsPerCTA int
	Iters       int // loop-depth multiplier
}

// DefaultScale sizes workloads for the scaled simulator configuration
// (config.Scaled(4, 32)): three waves of CTAs so inter-CTA prefetching has
// future CTAs to target.
func DefaultScale() Scale { return Scale{CTAs: 48, WarpsPerCTA: 8, Iters: 12} }

// Tiny returns a minimal scale for unit tests.
func Tiny() Scale { return Scale{CTAs: 4, WarpsPerCTA: 2, Iters: 4} }

// Upper limits Scale.Validate puts on a scale. A scale can arrive over the
// network (snaked's "scale" override), and the store keeps every trace it
// builds, whose size is proportional to CTAs × WarpsPerCTA × Iters: about
// 296 B per unit for lib, the largest generator (40 one-byte codes and 32
// eight-byte addresses), so 1.4 MB at DefaultScale.
const (
	// LimitCTAs, LimitWarpsPerCTA and LimitIters bound each dimension, so
	// a request is rejected by name and the product cannot overflow. A CTA
	// must fit one SM: LimitWarpsPerCTA is the most warps an SM may hold
	// (config.LimitWarpsPerSM).
	LimitCTAs        = 1 << 16
	LimitWarpsPerCTA = 4 * 64
	LimitIters       = 1 << 16
	// LimitWork bounds CTAs × WarpsPerCTA × Iters, and so the trace's size:
	// the scale that keeps one cell simulating for seconds on a small GPU
	// (CTAs 1024, WarpsPerCTA 8, Iters 128), where lps holds ~40 MB and
	// lib ~0.31 GB.
	LimitWork = 1 << 20
)

// Validate checks the scale as the generators would build it: each
// dimension in [1, its limit] and their product within LimitWork.
func (s Scale) Validate() error {
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"CTAs", s.CTAs, LimitCTAs},
		{"WarpsPerCTA", s.WarpsPerCTA, LimitWarpsPerCTA},
		{"Iters", s.Iters, LimitIters},
	} {
		if f.val < 1 || f.val > f.max {
			return fmt.Errorf("scale: %s %d must be in [1, %d]", f.name, f.val, f.max)
		}
	}
	if w := s.CTAs * s.WarpsPerCTA * s.Iters; w > LimitWork {
		return fmt.Errorf("scale: CTAs × WarpsPerCTA × Iters = %d exceeds %d", w, LimitWork)
	}
	return nil
}

// FitsSM checks that one CTA of the scale fits in an SM with warpSlots warp
// slots (config.GPU.MaxWarpsPerSM): CTA residency is bounded by warp slots
// alone, so a larger CTA could never be placed.
func (s Scale) FitsSM(warpSlots int) error {
	if s.WarpsPerCTA > warpSlots {
		return fmt.Errorf("scale: a CTA of %d warps does not fit in %d warp slots per SM", s.WarpsPerCTA, warpSlots)
	}
	return nil
}

// Builder constructs a kernel at the given scale.
type Builder func(Scale) *trace.Kernel

var registry = map[string]Builder{
	"cp":       CP,
	"lps":      LPS,
	"lib":      LIB,
	"mum":      MUM,
	"backprop": Backprop,
	"hotspot":  Hotspot,
	"srad":     Srad,
	"lud":      LUD,
	"nw":       NW,
	"histo":    Histo,
	"mrq":      MRQ,
}

// tableOrder is the Table 2 presentation order.
var tableOrder = []string{
	"cp", "lps", "lib", "mum", "backprop", "hotspot", "srad", "lud", "nw", "histo", "mrq",
}

// Names returns the benchmark names in Table 2 order.
func Names() []string {
	out := make([]string, len(tableOrder))
	copy(out, tableOrder)
	return out
}

// Has reports whether name is a registry benchmark.
func Has(name string) bool {
	_, ok := registry[name]
	return ok
}

// FullNames maps the abbreviation to the Table 2 full benchmark name.
func FullNames() map[string]string {
	return map[string]string{
		"cp":       "Coulombic Potential (ISPASS)",
		"lps":      "3D Laplace Solver (ISPASS)",
		"lib":      "LIBOR Monte Carlo (ISPASS)",
		"mum":      "MUMmerGPU (ISPASS)",
		"backprop": "Back Propagation (Rodinia)",
		"hotspot":  "HotSpot (Rodinia)",
		"srad":     "Speckle Reducing Anisotropic Diffusion (Rodinia)",
		"lud":      "LU Decomposition (Rodinia)",
		"nw":       "Needleman-Wunsch (Rodinia)",
		"histo":    "Histogram (Parboil)",
		"mrq":      "mri-q (Parboil)",
	}
}

// Build constructs the named benchmark's kernel, packed (trace.Kernel.Pack),
// or returns the error of a scale Validate rejects.
func Build(name string, sc Scale) (*trace.Kernel, error) {
	b, ok := registry[name]
	if !ok {
		known := make([]string, 0, len(registry))
		for k := range registry {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("workloads: unknown benchmark %q (known: %v)", name, known)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	k := b(sc)
	if err := k.Pack(); err != nil {
		return nil, err
	}
	return k, nil
}

// mix is splitmix64: a deterministic pseudo-random mixer used for irregular
// (data-dependent) address streams. No global state, fully reproducible.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// irregular returns a pseudo-random line-aligned address within
// [base, base+span).
func irregular(base uint64, span uint64, seed uint64) uint64 {
	off := mix(seed) % (span / lineBytes)
	return base + off*lineBytes
}

// gwarp returns the global warp index of warp w in CTA c.
func gwarp(c, w, warpsPerCTA int) int { return c*warpsPerCTA + w }
