package prefetch

import (
	"testing"
)

// ev builds a minimal access event.
func ev(warp int, pc, addr uint64) AccessEvent {
	return AccessEvent{WarpID: warp, PC: pc, Addr: addr}
}

func addrs(reqs []Request) []uint64 {
	out := make([]uint64, len(reqs))
	for i, r := range reqs {
		out[i] = r.Addr
	}
	return out
}

func contains(reqs []Request, addr uint64) bool {
	for _, r := range reqs {
		if r.Addr == addr {
			return true
		}
	}
	return false
}

func TestIntraWarpTrainsAfterConfidence(t *testing.T) {
	p := NewIntraWarp()
	if reqs := p.OnAccess(ev(0, 8, 1000)); reqs != nil {
		t.Fatalf("first access prefetched %v", addrs(reqs))
	}
	if reqs := p.OnAccess(ev(0, 8, 1100)); reqs != nil {
		t.Fatalf("one stride observation prefetched %v", addrs(reqs))
	}
	reqs := p.OnAccess(ev(0, 8, 1200)) // stride 100 twice: trained
	if !contains(reqs, 1300) {
		t.Fatalf("trained intra-warp did not prefetch next iteration: %v", addrs(reqs))
	}
}

func TestIntraWarpPerWarpIsolation(t *testing.T) {
	p := NewIntraWarp()
	p.OnAccess(ev(0, 8, 1000))
	p.OnAccess(ev(0, 8, 1100))
	// A different warp at the same PC must not inherit training.
	if reqs := p.OnAccess(ev(1, 8, 5000)); reqs != nil {
		t.Errorf("warp 1 prefetched from warp 0 training: %v", addrs(reqs))
	}
}

func TestIntraWarpStrideChangeRetrains(t *testing.T) {
	p := NewIntraWarp()
	p.OnAccess(ev(0, 8, 1000))
	p.OnAccess(ev(0, 8, 1100))
	p.OnAccess(ev(0, 8, 1200))
	if reqs := p.OnAccess(ev(0, 8, 9000)); reqs != nil {
		t.Errorf("stride break still prefetched: %v", addrs(reqs))
	}
}

func TestInterWarpTrainsAcrossWarps(t *testing.T) {
	p := NewInterWarp()
	p.OnAccess(ev(0, 8, 1000))
	p.OnAccess(ev(1, 8, 2000))         // stride 1000, 2 warps
	reqs := p.OnAccess(ev(2, 8, 3000)) // 3 warps agree
	if !contains(reqs, 4000) {
		t.Fatalf("inter-warp did not prefetch for next warp: %v", addrs(reqs))
	}
}

func TestInterWarpNonUnitWarpDelta(t *testing.T) {
	p := NewInterWarp()
	p.OnAccess(ev(0, 8, 1000))
	p.OnAccess(ev(2, 8, 3000)) // delta 2 warps, stride/warp = 1000
	reqs := p.OnAccess(ev(4, 8, 5000))
	if !contains(reqs, 6000) {
		t.Fatalf("per-warp stride not normalized: %v", addrs(reqs))
	}
}

func TestMTAUnionsAndDedups(t *testing.T) {
	p := NewMTA()
	// Train intra for warp 0 (stride 100) and inter across warps with the
	// same projected address to force overlap.
	p.OnAccess(ev(0, 8, 1000))
	p.OnAccess(ev(0, 8, 1100))
	reqs := p.OnAccess(ev(0, 8, 1200))
	seen := map[uint64]int{}
	for _, r := range reqs {
		seen[r.Addr]++
		if seen[r.Addr] > 1 {
			t.Fatalf("duplicate request %#x", r.Addr)
		}
	}
}

func TestCTAAwareNeedsCTATransitions(t *testing.T) {
	p := NewCTAAware()
	e := AccessEvent{WarpID: 0, PC: 8, Addr: 1000, CTAID: 0, CTABase: 0x1000}
	if reqs := p.OnAccess(e); reqs != nil {
		t.Fatalf("prefetched before any CTA stride known: %v", addrs(reqs))
	}
	// Two CTA transitions with consistent base stride.
	e2 := AccessEvent{WarpID: 0, PC: 8, Addr: 2000, CTAID: 1, CTABase: 0x2000}
	p.OnAccess(e2)
	e3 := AccessEvent{WarpID: 0, PC: 8, Addr: 3000, CTAID: 2, CTABase: 0x3000}
	reqs := p.OnAccess(e3)
	if !contains(reqs, 3000+0x1000) {
		t.Fatalf("CTA-aware did not project into next CTA: %v", addrs(reqs))
	}
}

func TestTreeCoversChunkProgressively(t *testing.T) {
	p := NewTree()
	reqs := p.OnAccess(ev(0, 8, 64*1024*3+512))
	if len(reqs) != p.BurstLines {
		t.Fatalf("first trigger issued %d lines, want %d", len(reqs), p.BurstLines)
	}
	base := uint64(64 * 1024 * 3)
	if reqs[0].Addr != base {
		t.Errorf("burst starts at %#x, want chunk base %#x", reqs[0].Addr, base)
	}
	// Subsequent triggers continue the chunk without repetition.
	reqs2 := p.OnAccess(ev(0, 8, base+600))
	if reqs2[0].Addr != base+uint64(p.BurstLines)*128 {
		t.Errorf("second burst starts at %#x", reqs2[0].Addr)
	}
	// Eventually the chunk is exhausted.
	for i := 0; i < 64; i++ {
		p.OnAccess(ev(0, 8, base))
	}
	if reqs := p.OnAccess(ev(0, 8, base)); reqs != nil {
		t.Errorf("exhausted chunk still issues: %v", addrs(reqs))
	}
}

func TestIdealUsesOracleAndKnownDeltas(t *testing.T) {
	p := NewIdeal()
	// Teach the delta (pc 8 -> pc 16, +100) via warp 0.
	p.OnAccess(ev(0, 8, 1000))
	p.OnAccess(ev(0, 16, 1100))
	// Warp 1 at pc 8 with a future load at pc 16, +100: predictable.
	e := ev(1, 8, 5000)
	e.FuturePCs = []uint64{16}
	e.FutureAddrs = []uint64{5100}
	reqs := p.OnAccess(e)
	if !contains(reqs, 5100) {
		t.Fatalf("Ideal did not prefetch a known-delta future load: %v", addrs(reqs))
	}
	// An unknown delta is not predictable even for the oracle.
	e2 := ev(1, 16, 5100)
	e2.FuturePCs = []uint64{8}
	e2.FutureAddrs = []uint64{999999}
	for _, r := range p.OnAccess(e2) {
		if r.Addr == 999999 {
			t.Error("Ideal prefetched a never-seen stride")
		}
	}
}

func TestIdealWantsOracle(t *testing.T) {
	if !WantsOracle(NewIdeal()) {
		t.Error("WantsOracle(Ideal) must be true")
	}
	if WantsOracle(NewMTA()) {
		t.Error("MTA must not want the oracle")
	}
}

func TestNullPrefetcher(t *testing.T) {
	var n Null
	if n.OnAccess(ev(0, 8, 1)) != nil || n.Name() != "baseline" || !n.Trained() {
		t.Error("Null prefetcher misbehaves")
	}
}

func TestResets(t *testing.T) {
	ps := []Prefetcher{NewIntraWarp(), NewInterWarp(), NewMTA(), NewCTAAware(), NewTree(), NewIdeal()}
	for _, p := range ps {
		p.OnAccess(ev(0, 8, 1000))
		p.OnAccess(ev(0, 8, 1100))
		p.Reset()
		// After reset, no training survives: two observations are again
		// insufficient for the stride prefetchers.
		if reqs := p.OnAccess(ev(0, 8, 1200)); p.Name() != "tree" && len(reqs) > 0 {
			t.Errorf("%s: training survived Reset: %v", p.Name(), addrs(reqs))
		}
	}
}

// TestRingFIFO drives ring against a slice queue through growth, wrap-around
// and resets, and checks that a ring held at its working length stops
// allocating.
func TestRingFIFO(t *testing.T) {
	var r ring[int]
	var ref []int
	next := 0
	for step := 0; step < 5000; step++ {
		switch {
		case step%997 == 0:
			r.reset()
			ref = ref[:0]
		case step%3 != 0 || len(ref) == 0:
			r.push(next)
			ref = append(ref, next)
			next++
		default:
			if got := r.pop(); got != ref[0] {
				t.Fatalf("step %d: pop = %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		}
		if r.n != len(ref) {
			t.Fatalf("step %d: length %d, want %d", step, r.n, len(ref))
		}
	}
	r.reset()
	for i := 0; i < 100; i++ {
		r.push(i)
	}
	if n := testing.AllocsPerRun(20, func() {
		r.push(r.pop())
	}); n != 0 {
		t.Errorf("a ring at its working length allocated %.1f times per push, want 0", n)
	}
}
