package workloads

import (
	"testing"

	"snake/internal/trace"
)

// Structural property tests: each benchmark's documented access structure —
// the properties that make the paper's per-benchmark results come out — is
// pinned here so workload edits cannot silently change the story.

func loadsOf(t *testing.T, name string) []trace.Inst {
	t.Helper()
	k, err := Build(name, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return k.CTAs[0].Warps[0].Loads()
}

func TestCPAtomCoordinatesShareALine(t *testing.T) {
	loads := loadsOf(t, "cp")
	// Four coordinate reads per atom at 32-byte spacing: all in one line.
	l0 := loads[0].Addr &^ 127
	for i := 1; i < 4; i++ {
		if loads[i].Addr&^127 != l0 {
			t.Fatalf("cp atom read %d left the record's line", i)
		}
	}
	// The next atom record starts a new group at +128.
	if loads[4].Addr != loads[0].Addr+128 {
		t.Errorf("cp record stride = %d, want 128", loads[4].Addr-loads[0].Addr)
	}
}

func TestLIBHasZeroReuse(t *testing.T) {
	loads := loadsOf(t, "lib")
	seen := map[uint64]bool{}
	for _, in := range loads {
		line := in.Addr &^ 127
		if seen[line] {
			t.Fatalf("lib revisited line %#x; it must stream with zero reuse", line)
		}
		seen[line] = true
	}
}

func TestLIBInterArrayDeltasFixed(t *testing.T) {
	loads := loadsOf(t, "lib")
	d01 := int64(loads[1].Addr) - int64(loads[0].Addr)
	d12 := int64(loads[2].Addr) - int64(loads[1].Addr)
	d34 := int64(loads[4].Addr) - int64(loads[3].Addr)
	if d01 != d34 {
		t.Errorf("lib chain delta changed across iterations: %d vs %d", d01, d34)
	}
	if d01 == 0 || d12 == 0 {
		t.Error("lib arrays overlap")
	}
}

func TestMUMJumpsNeverRepeatDeltas(t *testing.T) {
	loads := loadsOf(t, "mum")
	// Node-load deltas (every 3rd load starting at 0) must not repeat.
	seen := map[int64]int{}
	for i := 3; i < len(loads); i += 3 {
		d := int64(loads[i].Addr) - int64(loads[i-3].Addr)
		seen[d]++
	}
	for d, n := range seen {
		if n >= 3 {
			t.Errorf("mum node-jump delta %d repeats %d times; must stay untrainable", d, n)
		}
	}
}

func TestBackpropInnerLoopIsSinglePCFixedStride(t *testing.T) {
	loads := loadsOf(t, "backprop")
	// After the one-off input read, the forward loop re-executes one PC with
	// a fixed stride (the Rodinia weight-column walk).
	pc := loads[1].PC
	var prev uint64
	var stride int64
	for i, in := range loads[1:] {
		if in.PC != pc {
			break
		}
		if i == 1 {
			stride = int64(in.Addr) - int64(prev)
		} else if i > 1 {
			if d := int64(in.Addr) - int64(prev); d != stride {
				t.Fatalf("backprop weight stride changed: %d vs %d", d, stride)
			}
		}
		prev = in.Addr
	}
	if stride == 0 {
		t.Fatal("backprop weight walk has no stride")
	}
}

func TestHistoVectorizedInputChain(t *testing.T) {
	loads := loadsOf(t, "histo")
	// Four consecutive-line input loads then one scattered bin load.
	for i := 1; i < 4; i++ {
		if loads[i].Addr != loads[i-1].Addr+128 {
			t.Fatalf("histo input chain broken at %d", i)
		}
	}
	if loads[4].Addr == loads[3].Addr+128 {
		t.Error("histo bin load looks sequential; it must be scattered")
	}
}

func TestHotspotStencilOffsetsFixed(t *testing.T) {
	loads := loadsOf(t, "hotspot")
	// Six loads per row; the offsets between consecutive PCs repeat exactly
	// in the next row (the chain Snake trains on).
	for i := 0; i < 5; i++ {
		d0 := int64(loads[i+1].Addr) - int64(loads[i].Addr)
		d1 := int64(loads[i+7].Addr) - int64(loads[i+6].Addr)
		if d0 != d1 {
			t.Fatalf("hotspot chain delta %d changed between rows: %d vs %d", i, d0, d1)
		}
	}
}

func TestSradHasBarrierBetweenPhases(t *testing.T) {
	k, _ := Build("srad", Tiny())
	found := false
	for _, in := range k.CTAs[0].Warps[0].Insts() {
		if in.Op == trace.OpBarrier {
			found = true
		}
	}
	if !found {
		t.Error("srad lost its phase barrier")
	}
}

func TestMRQBroadcastSharedAcrossWarps(t *testing.T) {
	k, _ := Build("mrq", Tiny())
	w0 := k.CTAs[0].Warps[0].Loads()
	w1 := k.CTAs[0].Warps[1].Loads()
	// The k-space walk (loads from index 2 on) is identical across warps of
	// a CTA: that sharing is what makes mrq compute-bound in the baseline.
	if w0[2].Addr != w1[2].Addr || w0[4].Addr != w1[4].Addr {
		t.Error("mrq k-space walk no longer shared across warps")
	}
}

func TestNWNorthOffsetNeverRecurs(t *testing.T) {
	loads := loadsOf(t, "nw")
	// The north-cell load (every 3rd) must have per-step-unique deltas.
	seen := map[int64]int{}
	for i := 5; i < len(loads); i += 3 {
		d := int64(loads[i].Addr) - int64(loads[i-3].Addr)
		seen[d]++
		if seen[d] >= 3 {
			t.Fatalf("nw north delta %d recurred; low repetition is nw's defining property", d)
		}
	}
}

func TestLUDWithinIterationDeltasFixed(t *testing.T) {
	loads := loadsOf(t, "lud")
	// Deltas within an iteration (loads 0-3) are identical in iteration 2
	// (loads 4-7) even though the iteration step varies.
	for i := 0; i < 3; i++ {
		d0 := int64(loads[i+1].Addr) - int64(loads[i].Addr)
		d1 := int64(loads[i+5].Addr) - int64(loads[i+4].Addr)
		if d0 != d1 {
			t.Fatalf("lud within-iteration delta %d not fixed: %d vs %d", i, d0, d1)
		}
	}
}
