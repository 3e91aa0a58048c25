// Command benchab compares two files of `go test -bench` output, the merge
// base and the head of a same-machine A/B as scripts/bench_ab.sh writes
// them, and exits 1 if any case regressed.
//
// Usage:
//
//	benchab base.txt head.txt
//
// A file may hold several rounds of each case. Every metric is compared at
// its lowest reading across rounds, so ns/op is the fastest round's. Cases
// present on only one side are skipped.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// gate is one metric's regression rule: the head fails when it exceeds the
// base by more than ratio×, is above floor, and grew by more than step.
// Allocation floors keep one incidental allocation on a near-zero steady
// state from tripping the ratio.
type gate struct {
	unit               string
	ratio, floor, step float64
}

var serialGates = []gate{{"ns/op", 1.25, 0, 0}, {"allocs/op", 1.2, 16, 0}, {"B/op", 1.2, 16 << 10, 0}}

// results holds the lowest reading of each metric per case, in first-seen
// case order.
type results struct {
	order []string
	best  map[string]map[string]float64 // case → unit → value
}

// parse reads lines of the form "BenchmarkX/case-P  N  v1 unit1  v2 unit2 ...".
func parse(r io.Reader) (results, error) {
	res := results{best: make(map[string]map[string]float64)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		m := res.best[f[0]]
		if m == nil {
			m = make(map[string]float64)
			res.best[f[0]] = m
			res.order = append(res.order, f[0])
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return res, fmt.Errorf("benchab: %s: bad value %q", f[0], f[i])
			}
			if old, ok := m[f[i+1]]; !ok || v < old {
				m[f[i+1]] = v
			}
		}
	}
	return res, sc.Err()
}

// compare writes one report line per gated metric present on both sides and
// returns "case unit" for each one that regressed.
func compare(w io.Writer, base, head results) []string {
	var regressed []string
	for _, name := range head.order {
		b, ok := base.best[name]
		if !ok {
			fmt.Fprintf(w, "%-46s skipped: not on base\n", name)
			continue
		}
		for _, g := range serialGates {
			bv, bok := b[g.unit]
			hv, hok := head.best[name][g.unit]
			if !bok || !hok || bv <= 0 {
				continue
			}
			verdict := "ok"
			if hv > bv*g.ratio && hv > g.floor && hv-bv > g.step {
				verdict = "REGRESSION"
				regressed = append(regressed, name+" "+g.unit)
			}
			fmt.Fprintf(w, "%-46s %-12s %12.4g -> %12.4g  %5.2fx (tolerance %.2fx)  %s\n",
				name, g.unit, bv, hv, hv/bv, g.ratio, verdict)
		}
	}
	for _, name := range base.order {
		if head.best[name] == nil {
			fmt.Fprintf(w, "%-46s skipped: not on head\n", name)
		}
	}
	return regressed
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchab base.txt head.txt")
		os.Exit(2)
	}
	var sides [2]results
	for i, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err == nil {
			sides[i], err = parse(strings.NewReader(string(data)))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchab:", err)
			os.Exit(2)
		}
	}
	if len(sides[1].order) == 0 {
		fmt.Fprintln(os.Stderr, "benchab: no benchmark results on head")
		os.Exit(2)
	}
	if regressed := compare(os.Stdout, sides[0], sides[1]); len(regressed) > 0 {
		fmt.Printf("\nbenchab: %d regression(s): %s\n", len(regressed), strings.Join(regressed, ", "))
		os.Exit(1)
	}
	fmt.Println("\nbenchab: no regressions")
}
