package profiling

import (
	"math"
	"testing"
)

func TestPhasesAccounting(t *testing.T) {
	var p Phases
	if p.TotalNs() != 0 || p.SerialShare() != 0 {
		t.Fatalf("zero value not empty: total=%d share=%f", p.TotalNs(), p.SerialShare())
	}
	p.Add(PhaseSerialDrain, 25)
	p.Add(PhaseSerialRoute, 5)
	p.Add(PhaseMemPartitions, 20)
	p.Add(PhaseShards, 40)
	p.Add(PhaseMerge, 10)
	p.Add(PhaseMerge, 0) // zero-duration laps accrue nothing but are legal
	if got := p.TotalNs(); got != 100 {
		t.Errorf("TotalNs = %d, want 100", got)
	}
	if got := p.SerialShare(); math.Abs(got-0.40) > 1e-12 {
		t.Errorf("SerialShare = %f, want 0.40", got)
	}
	if got := p.MergeShare(); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("MergeShare = %f, want 0.10", got)
	}
	p.AddEpoch(6)
	p.AddEpoch(2)
	if p.Barriers() != 2 || p.EpochCycles() != 8 {
		t.Errorf("barriers=%d epochCycles=%d, want 2 and 8", p.Barriers(), p.EpochCycles())
	}
	if got := p.CyclesPerBarrier(); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("CyclesPerBarrier = %f, want 4", got)
	}
	var empty Phases
	if empty.CyclesPerBarrier() != 0 {
		t.Errorf("CyclesPerBarrier on empty accumulator = %f, want 0", empty.CyclesPerBarrier())
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		name := ph.String()
		if name == "" || seen[name] {
			t.Errorf("phase %d has empty or duplicate name %q", ph, name)
		}
		seen[name] = true
	}
}
