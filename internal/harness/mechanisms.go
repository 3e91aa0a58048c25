// Package harness wires workloads, mechanisms and the simulator into the
// experiments of the paper's evaluation: one function per figure/table that
// prints the same rows/series the paper reports. EXPERIMENTS.md records the
// paper-vs-measured comparison produced from these.
package harness

import (
	"fmt"
	"sort"

	"snake/internal/core"
	"snake/internal/prefetch"
)

// Factory builds a fresh per-SM prefetcher.
type Factory func(smID int) prefetch.Prefetcher

// mechanisms maps names to factories. Each SM gets its own instance, as in
// hardware.
var mechanisms = map[string]Factory{
	"baseline":       func(int) prefetch.Prefetcher { return prefetch.Null{} },
	"intra":          func(int) prefetch.Prefetcher { return prefetch.NewIntraWarp() },
	"inter":          func(int) prefetch.Prefetcher { return prefetch.NewInterWarp() },
	"mta":            func(int) prefetch.Prefetcher { return prefetch.NewMTA() },
	"cta":            func(int) prefetch.Prefetcher { return prefetch.NewCTAAware() },
	"tree":           func(int) prefetch.Prefetcher { return prefetch.NewTree() },
	"ideal":          func(int) prefetch.Prefetcher { return prefetch.NewIdeal() },
	"s-snake":        func(int) prefetch.Prefetcher { return core.NewSimpleSnake() },
	"snake-dt":       func(int) prefetch.Prefetcher { return core.NewSnakeDT() },
	"snake-t":        func(int) prefetch.Prefetcher { return core.NewSnakeT() },
	"snake":          func(int) prefetch.Prefetcher { return core.NewSnake() },
	"snake+cta":      func(int) prefetch.Prefetcher { return core.NewSnakePlusCTA() },
	"isolated-snake": func(int) prefetch.Prefetcher { return core.NewIsolatedSnake() },

	// Extension comparison points: CPU prefetchers of §6.1, adapted to GPU.
	"domino": func(int) prefetch.Prefetcher { return prefetch.NewDomino() },
	"bingo":  func(int) prefetch.Prefetcher { return prefetch.NewBingo() },
}

// Mechanism returns the named prefetcher factory.
func Mechanism(name string) (Factory, error) {
	f, ok := mechanisms[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown mechanism %q (known: %v)", name, MechanismNames())
	}
	return f, nil
}

// MechanismNames returns all known mechanism names, sorted.
func MechanismNames() []string {
	out := make([]string, 0, len(mechanisms))
	for k := range mechanisms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Fig16Order is the mechanism presentation order of Figures 16–19.
var Fig16Order = []string{
	"intra", "inter", "mta", "cta", "tree",
	"s-snake", "snake-dt", "snake-t", "snake", "snake+cta",
}
