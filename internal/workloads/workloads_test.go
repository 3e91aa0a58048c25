package workloads

import (
	"testing"

	"snake/internal/trace"
)

func TestAllBenchmarksBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		k, err := Build(name, Tiny())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := k.Validate(); err != nil {
			t.Errorf("%s: invalid kernel: %v", name, err)
		}
		if k.TotalLoads() == 0 {
			t.Errorf("%s: no loads", name)
		}
	}
}

func TestNamesMatchesRegistryAndFullNames(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("Table 2 lists 11 benchmarks, got %d", len(names))
	}
	full := FullNames()
	for _, n := range names {
		if _, ok := full[n]; !ok {
			t.Errorf("no full name for %q", n)
		}
		if _, err := Build(n, Tiny()); err != nil {
			t.Errorf("Build(%q) failed: %v", n, err)
		}
	}
}

func TestUnknownBenchmarkError(t *testing.T) {
	if _, err := Build("nope", Tiny()); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestScaleControlsSize(t *testing.T) {
	small, _ := Build("lps", Scale{CTAs: 2, WarpsPerCTA: 2, Iters: 4})
	big, _ := Build("lps", Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 8})
	if small.TotalInsts() >= big.TotalInsts() {
		t.Errorf("scaling failed: small=%d big=%d", small.TotalInsts(), big.TotalInsts())
	}
	if len(small.CTAs) != 2 || len(small.CTAs[0].Warps) != 2 {
		t.Errorf("CTA/warp counts: %d/%d", len(small.CTAs), len(small.CTAs[0].Warps))
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, _ := Build("mum", Tiny())
	b, _ := Build("mum", Tiny())
	if a.TotalInsts() != b.TotalInsts() {
		t.Fatal("non-deterministic sizes")
	}
	for ci := range a.CTAs {
		for wi := range a.CTAs[ci].Warps {
			ia, ib := a.CTAs[ci].Warps[wi].Insts(), b.CTAs[ci].Warps[wi].Insts()
			for ii := range ia {
				if ia[ii] != ib[ii] {
					t.Fatalf("kernel generation not deterministic at CTA %d warp %d inst %d", ci, wi, ii)
				}
			}
		}
	}
}

func TestCTABasesHaveFixedStride(t *testing.T) {
	// CTA-aware prefetching needs a fixed base stride; verify the regular
	// benchmarks provide one.
	for _, name := range []string{"lps", "lib", "hotspot", "cp"} {
		k, _ := Build(name, Tiny())
		if len(k.CTAs) < 3 {
			t.Fatalf("%s: need >= 3 CTAs", name)
		}
		d1 := int64(k.CTAs[1].BaseAddr) - int64(k.CTAs[0].BaseAddr)
		d2 := int64(k.CTAs[2].BaseAddr) - int64(k.CTAs[1].BaseAddr)
		if d1 != d2 || d1 == 0 {
			t.Errorf("%s: CTA base strides %d, %d not fixed", name, d1, d2)
		}
	}
}

func TestLPSHasInterThreadChain(t *testing.T) {
	k, _ := Build("lps", Tiny())
	w := k.CTAs[0].Warps[0]
	loads := w.Loads()
	if len(loads) < 2 {
		t.Fatal("lps warp has too few loads")
	}
	// Figure 7's chain: u1[ind] then u1[ind+KOFF], delta constant across
	// iterations.
	d0 := int64(loads[1].Addr) - int64(loads[0].Addr)
	d1 := int64(loads[3].Addr) - int64(loads[2].Addr)
	if d0 != d1 || d0 <= 0 {
		t.Errorf("lps inter-thread deltas %d, %d not constant", d0, d1)
	}
}

func TestLUDPerPCStridesVary(t *testing.T) {
	// LUD's defining property: the per-PC stride changes every iteration
	// (so fixed-stride prefetchers cannot train) while within-iteration
	// deltas stay fixed.
	k, _ := Build("lud", Tiny())
	loads := k.CTAs[0].Warps[0].Loads()
	perPC := map[uint32][]uint64{}
	for _, in := range loads {
		perPC[in.PC] = append(perPC[in.PC], in.Addr)
	}
	for pc, addrs := range perPC {
		if len(addrs) < 3 {
			continue
		}
		s1 := int64(addrs[1]) - int64(addrs[0])
		s2 := int64(addrs[2]) - int64(addrs[1])
		if s1 == s2 {
			t.Errorf("lud pc %#x has fixed stride %d; it must vary", pc, s1)
		}
	}
}

func TestStreamMicroStructure(t *testing.T) {
	k := StreamMicro(Tiny(), 256)
	loads := k.CTAs[0].Warps[0].Loads()
	if int64(loads[2].Addr)-int64(loads[0].Addr) != 256 {
		t.Errorf("stream step = %d, want 256", int64(loads[2].Addr)-int64(loads[0].Addr))
	}
}

func TestTiledConvBarriers(t *testing.T) {
	k := TiledConv(Tiny(), 0.5, 64*1024)
	found := false
	for _, in := range k.CTAs[0].Warps[0].Insts() {
		if in.Op == trace.OpBarrier {
			found = true
			break
		}
	}
	if !found {
		t.Error("tiled kernel has no barriers")
	}
	if err := k.Validate(); err != nil {
		t.Errorf("tiledconv invalid: %v", err)
	}
	// Untiled variant validates too and has no barriers.
	u := TiledConv(Tiny(), 0, 64*1024)
	if err := u.Validate(); err != nil {
		t.Errorf("untiled invalid: %v", err)
	}
	for _, in := range u.CTAs[0].Warps[0].Insts() {
		if in.Op == trace.OpBarrier {
			t.Error("untiled kernel must not have barriers")
		}
	}
}

func TestIrregularIsLineAlignedAndInRange(t *testing.T) {
	base, span := uint64(0x1000_0000), uint64(1<<20)
	for i := uint64(0); i < 1000; i++ {
		a := irregular(base, span, i)
		if a < base || a >= base+span {
			t.Fatalf("irregular address %#x out of range", a)
		}
		if a%lineBytes != 0 {
			t.Fatalf("irregular address %#x not line aligned", a)
		}
	}
}
