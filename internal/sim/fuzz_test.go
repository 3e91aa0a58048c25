package sim_test

import (
	"encoding/json"
	"testing"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/workloads"
)

// panicSeeds are single-field changes to config.Scaled(4, 64) that the
// engine once panicked on, although Validate accepted each of them: set
// counts that are not powers of two in the L2, in the L1 data space carved
// out by SharedMemPer and in the unified cache; an L1 data space that is
// not a whole number of lines; and a zero DRAM row size. Validate now
// rejects all five (TestGPUValidateRejects has each case). The rest of the
// list are buildable edge shapes, the model constants at their bounds among
// them.
func panicSeeds() []config.GPU {
	var seeds []config.GPU
	for _, f := range []func(*config.GPU){
		func(g *config.GPU) { g.L2.SizeBytes = 48 << 10 },
		func(g *config.GPU) { g.SharedMemPer = 32 << 10 },
		func(g *config.GPU) { g.Unified.SizeBytes = 96 << 10; g.SharedMemPer = 0 },
		func(g *config.GPU) { g.SharedMemPer = 1000 },
		func(g *config.GPU) { g.DRAMRowBytes = 0 },
		func(*config.GPU) {},
		func(g *config.GPU) { g.Unified.Ways = 1; g.SharedMemPer = g.Unified.SizeBytes - g.Unified.LineSize },
		func(g *config.GPU) { g.DRAM.TRC = config.LimitDRAMCycles },
		func(g *config.GPU) { g.IcntLatency = 1; g.IcntBytesPerCycle = 1 },
		func(g *config.GPU) { g.MLPPerWarp = 1 },
		func(g *config.GPU) { g.MLPPerWarp = config.LimitMLPPerWarp },
		func(g *config.GPU) { g.FillsPerPartition = 1 },
	} {
		g := config.Scaled(4, 64)
		f(&g)
		seeds = append(seeds, g)
	}
	return seeds
}

// FuzzValidatedConfigRuns checks the promise snaked relies on when it
// accepts a client's "gpu" override: whenever Validate accepts a
// configuration decoded, as snaked decodes it, onto a default machine
// (config.Scaled(4, 64)), the engine runs a tiny kernel on it under any
// registry mechanism and returns a result or an error — it never panics.
// Seeds are panicSeeds; CI fuzzes it with the wire codecs.
func FuzzValidatedConfigRuns(f *testing.F) {
	mechs := harness.MechanismNames()
	for _, g := range panicSeeds() {
		b, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range []uint8{0, 3, 7, 11} {
			f.Add(b, m)
		}
	}
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	f.Fuzz(func(t *testing.T, data []byte, mech uint8) {
		g := config.Scaled(4, 64)
		if json.Unmarshal(data, &g) != nil || g.Validate() != nil {
			return
		}
		// Keep each input to a few MB of engine storage. The limits bound
		// every size Validate accepts; a machine past this budget costs the
		// fuzzer time and memory without exercising different arithmetic.
		units := g.NumSM*(g.Unified.Lines()+2*g.MSHREntries+g.MaxWarpsPerSM) +
			g.L2Partitions*(g.L2.Lines()+g.DRAMBanks)
		if units > 1<<16 {
			return
		}
		name := mechs[int(mech)%len(mechs)]
		pf, err := harness.Mechanism(name)
		if err != nil {
			t.Fatal(err)
		}
		// The tiny kernel finishes in a few thousand cycles on a sane
		// machine; slow DRAM or a narrow network may hit the cap instead,
		// which is an error, not a failure.
		_, _ = sim.Run(k, sim.Options{Config: g, NewPrefetcher: pf, MaxCycles: 20000})
	})
}
