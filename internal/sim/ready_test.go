package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"snake/internal/config"
	"snake/internal/stats"
	"snake/internal/trace"
)

// farLatencyKernel mixes compute latencies up to 127 (the most an Inst.Lat
// holds) with zero ones, plus loads that hit, stores and barriers, over more
// CTAs than the SMs hold at once so warp slots are freed and redispatched
// while long waits are pending. Warp 0 of CTA 0 opens with a run of
// 127-cycle computes.
func farLatencyKernel() *trace.Kernel {
	k := &trace.Kernel{Name: "farlat"}
	lats := []int{127, 0, 65, 100, 0, 126, 66, 0}
	for c := 0; c < 6; c++ {
		cta := trace.CTA{ID: c, BaseAddr: uint64(c) << 16}
		for w := 0; w < 4; w++ {
			home := cta.BaseAddr + uint64(w*4096)
			b := trace.NewBuilder()
			if c == 0 && w == 0 {
				for i := 0; i < 8; i++ {
					b.Compute(0x10, 127)
				}
			}
			for i := 0; i < 6; i++ {
				addr := home + uint64((i+1)*128)
				b.Load(0x20, addr, 4)
				b.Compute(0x28, lats[(c+w+i)%len(lats)])
				b.Load(0x2c, home, 4) // hits once the warp's home line is filled
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
// every scheduler policy to recorded digests, with a 600-cycle L1 hit
// latency so hits land far ahead, near the far end of the timing wheel's
// span: readiness there, or already in the past when it is set, must land
// on exactly the cycles a per-cycle scan of every warp would find. The
// digests were recorded by an engine that filed readiness 128 or more
// cycles ahead in a separate overflow set, so they also pin the wheel sized
// to the config against it.
func TestFarFutureReadinessGolden(t *testing.T) {
	want := map[config.SchedulerPolicy]string{
		config.SchedGTO:    "a45d46defe3d22c7",
		config.SchedLRR:    "e7e5bcf3884116dc",
		config.SchedOldest: "add9b93a2f322583",
	}
	k := farLatencyKernel()
	for pol, dg := range want {
		cfg := config.Scaled(2, 8)
		cfg.Scheduler = pol
		cfg.Unified.Latency = 600
		res, err := Run(k, Options{Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Stats.L1[stats.L1Hit] == 0 {
			t.Fatalf("%s: no L1 hit, so no 600-cycle readiness was filed", pol)
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
