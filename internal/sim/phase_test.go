package sim

import (
	"reflect"
	"testing"

	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/profiling"
	"snake/internal/workloads"
)

// TestPhaseProfileEquivalence pins the profiler's non-interference contract:
// attaching a phase accumulator must not change Result at any slack window,
// and the accumulator must come back with a plausible breakdown (time
// recorded, serial share strictly inside (0,1)).
func TestPhaseProfileEquivalence(t *testing.T) {
	k, err := workloads.Build("hotspot", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, slack := range []int{1, 0} {
		opt := WithSlackWindow(Options{
			Config:        testCfg(),
			NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
		}, slack)
		want, err := runOutcome(NewEngine(), k, opt, "")
		if err != nil {
			t.Fatalf("slack=%d unprofiled: %v", slack, err)
		}
		var prof profiling.Phases
		opt.PhaseProfile = &prof
		got, err := runOutcome(NewEngine(), k, opt, "")
		if err != nil {
			t.Fatalf("slack=%d profiled: %v", slack, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("slack=%d: profiling changed results\n got:  %+v\n want: %+v", slack, got.Stats, want.Stats)
		}
		if prof.TotalNs() <= 0 {
			t.Fatalf("slack=%d: no phase time recorded", slack)
		}
		if prof.Ns(profiling.PhaseSerialDrain) <= 0 || prof.Ns(profiling.PhaseMemPartitions) <= 0 || prof.Ns(profiling.PhaseShards) <= 0 {
			t.Errorf("slack=%d: drain=%dns partitions=%dns shards=%dns; all three run every executed epoch",
				slack, prof.Ns(profiling.PhaseSerialDrain), prof.Ns(profiling.PhaseMemPartitions), prof.Ns(profiling.PhaseShards))
		}
		if ns := prof.Ns(profiling.PhaseSerialRoute); ns != 0 {
			t.Errorf("slack=%d: route=%dns; no engine phase laps it", slack, ns)
		}
		if share := prof.SerialShare(); share <= 0 || share >= 1 {
			t.Errorf("slack=%d: serial share %f outside (0,1)", slack, share)
		}
		if prof.Barriers() <= 0 || prof.EpochCycles() < prof.Barriers() {
			t.Errorf("slack=%d: epochs=%d epochCycles=%d; every epoch ticks at least one cycle",
				slack, prof.Barriers(), prof.EpochCycles())
		}
		if slack == 1 && prof.CyclesPerBarrier() != 1 {
			t.Errorf("slack=1: cycles/epoch = %f, want exactly 1", prof.CyclesPerBarrier())
		}
		if slack == 0 && prof.CyclesPerBarrier() <= 1 {
			t.Errorf("slack=auto: cycles/epoch = %f, want > 1 (epochs never lengthened)", prof.CyclesPerBarrier())
		}
	}
}

// TestPhaseProfileAccumulatesAcrossRuns checks the caller-owned aggregation
// window: a recycled engine keeps adding to the same accumulator, so a sweep
// can profile its whole batch with one Phases value.
func TestPhaseProfileAccumulatesAcrossRuns(t *testing.T) {
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var prof profiling.Phases
	opt := Options{Config: testCfg(), PhaseProfile: &prof}
	en := NewEngine()
	if _, err := en.Run(k, opt); err != nil {
		t.Fatal(err)
	}
	first := prof.TotalNs()
	if first <= 0 {
		t.Fatal("no phase time recorded on first run")
	}
	if _, err := en.Run(k, opt); err != nil {
		t.Fatal(err)
	}
	if prof.TotalNs() <= first {
		t.Errorf("second run did not accumulate: %dns then %dns", first, prof.TotalNs())
	}
}
