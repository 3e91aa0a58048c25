package sim_test

import (
	"testing"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// TestSteadyStateAllocs pins that the cycle loop does not allocate in steady
// state: lengthening a run 8x must not raise the per-run allocation count.
// The kernel streams through a few pages of address space, so per-access
// allocation would show up as thousands of extra allocations on the 8x run.
//
// The fresh leg runs the baseline on a new engine each time, so its count
// covers engine construction plus the loop. The warm legs run every
// mechanism of the registry, and MTA on decoupled storage, on one pooled
// engine each: MSHR entries, in-flight
// tables and queues grow on demand to a working size that depends on how
// far the prefetcher runs ahead, so only a warm engine isolates the loop
// itself. There the L1's predicted-line bitmap and every prefetcher's
// request buffer are reused, and a warm run allocates the same whatever
// its length.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	cfg := config.Scaled(2, 8)
	kernel := func(iters int) *trace.Kernel {
		return workloads.StreamMicro(workloads.Scale{CTAs: 4, WarpsPerCTA: 2, Iters: iters}, 256)
	}
	check := func(leg string, run func(k *trace.Kernel) error) {
		measure := func(iters int) float64 {
			k := kernel(iters)
			return testing.AllocsPerRun(5, func() {
				if err := run(k); err != nil {
					t.Fatal(err)
				}
			})
		}
		short := measure(4)
		long := measure(32)
		// Tiny slack for run-to-run GC noise.
		if long > short+8 {
			t.Errorf("%s: 8x longer run allocates %.0f vs %.0f per run; the cycle loop is allocating in steady state",
				leg, long, short)
		}
	}

	check("fresh baseline", func(k *trace.Kernel) error {
		_, err := sim.Run(k, sim.Options{Config: cfg})
		return err
	})
	for _, mech := range append(harness.MechanismNames(), "decoupled-mta") {
		pf := testMechanism(t, mech)
		en := sim.NewEngine()
		check("warm "+mech, func(k *trace.Kernel) error {
			_, err := en.RunTagged(k, sim.Options{Config: cfg, NewPrefetcher: pf}, mech)
			return err
		})
	}
}
