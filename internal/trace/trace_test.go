package trace

import (
	"testing"
	"testing/quick"
)

func validKernel() *Kernel {
	b := NewBuilder()
	b.Compute(0, 4).Load(8, 0x1000, 4).Store(16, 0x2000, 4).Barrier(24)
	w0 := b.Exit(32)
	w1 := NewBuilder().Load(8, 0x1100, 4).Exit(16)
	w1.IDInCTA = 1
	k := &Kernel{
		Name: "test",
		CTAs: []CTA{{ID: 0, BaseAddr: 0x1000, Warps: []WarpProgram{w0, w1}}},
	}
	if err := k.Pack(); err != nil {
		panic(err)
	}
	return k
}

func TestKernelValidateOK(t *testing.T) {
	if err := validKernel().Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
}

func TestKernelValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Kernel)
	}{
		{"no name", func(k *Kernel) { k.Name = "" }},
		{"no CTAs", func(k *Kernel) { k.CTAs = nil }},
		{"no warps", func(k *Kernel) { k.CTAs[0].Warps = nil }},
		{"bad warp id", func(k *Kernel) { k.CTAs[0].Warps[1].IDInCTA = 5 }},
		{"empty warp", func(k *Kernel) { k.CTAs[0].Warps[0].code = nil }},
		{"no exit", func(k *Kernel) {
			w := &k.CTAs[0].Warps[0]
			w.code = w.code[:len(w.code)-1]
		}},
		{"interior exit", func(k *Kernel) {
			w := &k.CTAs[0].Warps[0]
			w.code[0] = w.code[len(w.code)-1]
		}},
		{"negative latency", func(k *Kernel) {
			w := &k.CTAs[0].Warps[0]
			w.tab.at[w.code[0]].Lat = -1
		}},
		{"code past the table", func(k *Kernel) {
			w := &k.CTAs[0].Warps[0]
			w.code[0] = uint8(w.tab.len())
		}},
		{"missing address", func(k *Kernel) {
			w := &k.CTAs[0].Warps[0]
			w.addrs = w.addrs[:len(w.addrs)-1]
		}},
	}
	for _, tc := range cases {
		k := validKernel()
		tc.f(k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestTotals(t *testing.T) {
	k := validKernel()
	if got := k.TotalInsts(); got != 7 {
		t.Errorf("TotalInsts = %d, want 7", got)
	}
	if got := k.TotalLoads(); got != 2 {
		t.Errorf("TotalLoads = %d, want 2", got)
	}
}

func TestRepresentativeWarp(t *testing.T) {
	k := validKernel()
	// Add a warp with more loads; it must become representative.
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.Load(uint64(i*8), uint64(0x100*i), 4)
	}
	w := b.Exit(100)
	w.IDInCTA = 0
	k.CTAs = append(k.CTAs, CTA{ID: 1, Warps: []WarpProgram{w}})
	rep := k.RepresentativeWarp()
	if got := len(rep.Loads()); got != 5 {
		t.Errorf("representative warp has %d loads, want 5", got)
	}
}

func TestLoadPCsDistinctOrdered(t *testing.T) {
	b := NewBuilder()
	b.Load(8, 1, 4).Load(16, 2, 4).Load(8, 3, 4)
	w := b.Exit(24)
	pcs := w.LoadPCs()
	if len(pcs) != 2 || pcs[0] != 8 || pcs[1] != 16 {
		t.Errorf("LoadPCs = %v, want [8 16]", pcs)
	}
}

func TestBuilderProducesExitTerminated(t *testing.T) {
	f := func(nCompute uint8) bool {
		b := NewBuilder()
		for i := 0; i < int(nCompute%20); i++ {
			b.Compute(uint64(i*PCWidth), 1)
		}
		w := b.Exit(uint64(int(nCompute%20) * PCWidth))
		return w.At(w.Len()-1).Op == OpExit && w.Len() == int(nCompute%20)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpCompute: "compute", OpLoad: "load", OpStore: "store",
		OpBarrier: "barrier", OpExit: "exit", Op(99): "op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestIsMem(t *testing.T) {
	if !(Inst{Op: OpLoad}).IsMem() || !(Inst{Op: OpStore}).IsMem() {
		t.Error("loads and stores must be memory instructions")
	}
	if (Inst{Op: OpCompute}).IsMem() || (Inst{Op: OpBarrier}).IsMem() {
		t.Error("compute/barrier must not be memory instructions")
	}
}
