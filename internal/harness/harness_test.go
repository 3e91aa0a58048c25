package harness

import (
	"bytes"
	"strings"
	"testing"

	"snake/internal/config"
	"snake/internal/workloads"
)

// tinyRunner shrinks everything so harness tests stay fast.
func tinyRunner() *Runner {
	r := NewRunner()
	r.Cfg = config.Scaled(2, 16)
	r.Scale = workloads.Scale{CTAs: 6, WarpsPerCTA: 4, Iters: 4}
	return r
}

func TestMechanismRegistry(t *testing.T) {
	for _, name := range MechanismNames() {
		f, err := Mechanism(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := f(0)
		if p == nil {
			t.Fatalf("%s: nil prefetcher", name)
		}
	}
	if _, err := Mechanism("bogus"); err == nil {
		t.Error("unknown mechanism accepted")
	}
	for _, m := range Fig16Order {
		if _, err := Mechanism(m); err != nil {
			t.Errorf("Fig16Order mechanism %q not in registry", m)
		}
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := tinyRunner()
	a, err := r.Run("lps", "baseline")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("lps", "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Run did not return the memoized result")
	}
}

func TestExperimentIDsResolve(t *testing.T) {
	for _, id := range ExperimentIDs() {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("experiment %q missing from map", id)
		}
	}
}

func TestAnalyticExperiments(t *testing.T) {
	r := tinyRunner()
	for _, id := range []string{"fig21", "table1", "table3"} {
		tb, err := Experiments[id](r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tb, err := Table3(tinyRunner())
	if err != nil {
		t.Fatal(err)
	}
	// Head 448 bytes, Tail 320 bytes (Table 3).
	if tb.Rows[0].Values[2] != 448 {
		t.Errorf("head total = %v, want 448", tb.Rows[0].Values[2])
	}
	if tb.Rows[1].Values[2] != 320 {
		t.Errorf("tail total = %v, want 320", tb.Rows[1].Values[2])
	}
}

func TestSimulationExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment in -short mode")
	}
	r := tinyRunner()
	tb, err := Fig3(r)
	if err != nil {
		t.Fatal(err)
	}
	// 11 benchmarks + mean row.
	if len(tb.Rows) != 12 {
		t.Errorf("fig3 rows = %d, want 12", len(tb.Rows))
	}
	if tb.Rows[len(tb.Rows)-1].Label != "mean" {
		t.Error("last row must be the mean")
	}
}

func TestChainExperimentsSmoke(t *testing.T) {
	r := tinyRunner()
	for _, e := range []Experiment{Fig9, Fig10, Fig11} {
		tb, err := e(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != 12 {
			t.Errorf("%s rows = %d", tb.ID, len(tb.Rows))
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "b"}, Note: "n"}
	tb.AddRow("r1", 0.5)
	tb.AddRow("r2", 1.5)
	tb.Mean("mean")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T", "r1", "0.500", "mean", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestMeanOnEmptyTableIsNoop(t *testing.T) {
	tb := &Table{ID: "x", Columns: []string{"a"}}
	tb.Mean("mean")
	if len(tb.Rows) != 0 {
		t.Error("Mean on empty table added a row")
	}
}

// TestAllExperimentsAtTinyScale exercises every experiment end to end on a
// reduced configuration: each must produce a non-empty table whose row
// labels and column counts are consistent. Every registry mechanism must
// then have run on some benchmark: an entry no experiment reports does not
// belong in the registry.
func TestAllExperimentsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	r := NewRunner()
	r.Cfg = config.Scaled(2, 16)
	r.Scale = workloads.Scale{CTAs: 6, WarpsPerCTA: 4, Iters: 4}
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := Experiments[id](r)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			if tb.ID != id {
				t.Errorf("%s: table ID %q", id, tb.ID)
			}
			for _, row := range tb.Rows {
				if row.Label == "" {
					t.Errorf("%s: row with empty label", id)
				}
				if len(row.Values) > len(tb.Columns)-1 {
					t.Errorf("%s: row %q has %d values for %d value columns",
						id, row.Label, len(row.Values), len(tb.Columns)-1)
				}
			}
		})
	}
	for _, mech := range MechanismNames() {
		ran := false
		for _, bench := range workloads.Names() {
			_, ran = r.cache[r.Key(bench, mech).Hash()]
			if ran {
				break
			}
		}
		if !ran {
			t.Errorf("mechanism %q ran in no experiment", mech)
		}
	}
}
