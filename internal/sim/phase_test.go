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
// attaching a phase accumulator — which switches the parallel phase to the
// two-wave schedule so partition and shard time are separable — must not
// change Result at any Parallelism, and the accumulator must come back with
// a plausible breakdown (time recorded, serial share strictly inside (0,1)).
func TestPhaseProfileEquivalence(t *testing.T) {
	k, err := workloads.Build("hotspot", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		for _, slack := range []int{1, 0} {
			opt := Options{
				Config:        parCfg(),
				NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
				Parallelism:   p,
				SlackWindow:   slack,
			}
			want, err := Run(k, opt)
			if err != nil {
				t.Fatalf("P=%d slack=%d unprofiled: %v", p, slack, err)
			}
			var prof profiling.Phases
			opt.PhaseProfile = &prof
			got, err := Run(k, opt)
			if err != nil {
				t.Fatalf("P=%d slack=%d profiled: %v", p, slack, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("P=%d slack=%d: profiling changed results\n got:  %+v\n want: %+v", p, slack, got.Stats, want.Stats)
			}
			if prof.TotalNs() <= 0 {
				t.Fatalf("P=%d slack=%d: no phase time recorded", p, slack)
			}
			if prof.Ns(profiling.PhaseSerialRoute) <= 0 || prof.Ns(profiling.PhaseShards) <= 0 {
				t.Errorf("P=%d slack=%d: route=%dns shards=%dns; both run every executed cycle",
					p, slack, prof.Ns(profiling.PhaseSerialRoute), prof.Ns(profiling.PhaseShards))
			}
			if share := prof.SerialShare(); share <= 0 || share >= 1 {
				t.Errorf("P=%d slack=%d: serial share %f outside (0,1)", p, slack, share)
			}
			if prof.Barriers() <= 0 || prof.EpochCycles() < prof.Barriers() {
				t.Errorf("P=%d slack=%d: barriers=%d epochCycles=%d; every epoch crosses one barrier and ticks at least one cycle",
					p, slack, prof.Barriers(), prof.EpochCycles())
			}
			if slack == 1 && prof.CyclesPerBarrier() != 1 {
				t.Errorf("P=%d slack=1: cycles/barrier = %f, want exactly 1", p, prof.CyclesPerBarrier())
			}
			if slack == 0 && prof.CyclesPerBarrier() <= 1 {
				t.Errorf("P=%d slack=auto: cycles/barrier = %f, want > 1 (epochs never lengthened)", p, prof.CyclesPerBarrier())
			}
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
	opt := Options{Config: parCfg(), PhaseProfile: &prof}
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
