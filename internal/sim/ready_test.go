package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"snake/internal/config"
	"snake/internal/trace"
)

// farLatencyKernel mixes compute latencies far beyond any short-range
// readiness bookkeeping (1,000, 4,096 and 1<<20 cycles) with zero and
// negative ones — trace latencies are arbitrary int32s from decoded traces —
// plus loads, stores and barriers, over more CTAs than the SMs hold at once
// so warp slots are freed and redispatched while long waits are pending.
func farLatencyKernel() *trace.Kernel {
	k := &trace.Kernel{Name: "farlat"}
	lats := []int{1000, 3, -7, 0, 130, 257, 4096, 1}
	for c := 0; c < 6; c++ {
		cta := trace.CTA{ID: c, BaseAddr: uint64(c) << 16}
		for w := 0; w < 4; w++ {
			b := trace.NewBuilder()
			switch {
			case c == 0 && w == 0:
				b.Compute(0x10, 1<<20)
			case c == 1 && w == 0:
				// Retires in the middle of the 1<<20 wait, so the run never
				// goes a full deadlock window without retiring.
				b.Compute(0x10, 600_000)
			}
			for i := 0; i < 6; i++ {
				addr := cta.BaseAddr + uint64(w*4096+i*128)
				b.Load(0x20, addr, 4)
				b.Compute(0x28, lats[(c+w+i)%len(lats)])
				if i%3 == 2 {
					b.Barrier(0x30)
				}
				b.Store(0x38, addr+1<<20, 4)
			}
			p := b.Exit(0x40)
			p.IDInCTA = w
			cta.Warps = append(cta.Warps, p)
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// TestFarFutureReadinessGolden pins the statistics of farLatencyKernel under
// every scheduler policy to recorded digests: readiness far beyond the
// timing wheel's span, or already in the past when it is set, must land on
// exactly the cycles a per-cycle scan of every warp would find.
func TestFarFutureReadinessGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the 1<<20-cycle wait simulates about a million cycles per policy")
	}
	want := map[config.SchedulerPolicy]string{
		config.SchedGTO:    "2fdc0295d8b34bff",
		config.SchedLRR:    "e9f2f3f2eb271c47",
		config.SchedOldest: "87f8643fab6745f9",
	}
	k := farLatencyKernel()
	for pol, dg := range want {
		cfg := config.Scaled(2, 8)
		cfg.Scheduler = pol
		res, err := Run(k, Options{Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		b, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		if got := hex.EncodeToString(h[:8]); got != dg {
			t.Errorf("%s: stats digest %s, want %s (cycles %d, insts %d)", pol, got, dg, res.Stats.Cycles, res.Stats.Insts)
		}
	}
}
