package core

import (
	"strings"
	"testing"

	"snake/internal/prefetch"
)

// fakeEnv satisfies prefetch.Env with settable signals.
type fakeEnv struct {
	util     float64
	free     float64
	confined int64
}

func (f *fakeEnv) Utilization() float64  { return f.util }
func (f *fakeEnv) FreeFraction() float64 { return f.free }
func (f *fakeEnv) ConfineL1(until int64) { f.confined = until }

func ev(warp int, pc, addr uint64, cycle int64) prefetch.AccessEvent {
	return prefetch.AccessEvent{Cycle: cycle, WarpID: warp, PC: pc, Addr: addr}
}

func addrSet(reqs []prefetch.Request) map[uint64]bool {
	m := make(map[uint64]bool, len(reqs))
	for _, r := range reqs {
		m[r.Addr] = true
	}
	return m
}

// feedChain drives nWarps warps through one (pc1 -> pc2) chain iteration
// with the given stride, bases spaced warpSpan apart.
func feedChain(s *Snake, nWarps int, pc1, pc2 uint64, stride int64, warpSpan uint64, cycle int64) []prefetch.Request {
	var last []prefetch.Request
	for w := 0; w < nWarps; w++ {
		base := uint64(0x10000) + uint64(w)*warpSpan
		s.OnAccess(ev(w, pc1, base, cycle))
		last = s.OnAccess(ev(w, pc2, uint64(int64(base)+stride), cycle+1))
		cycle += 10
	}
	return last
}

func TestChainPromotionAfterThreeWarps(t *testing.T) {
	s := NewSnake()
	// Two warps are not enough.
	feedChain(s, 2, 0x100, 0x108, 4096, 1<<20, 1)
	reqs := s.OnAccess(ev(5, 0x100, 0x900000, 100))
	if len(reqs) != 0 {
		t.Fatalf("chain promoted with only 2 warps: %v", reqs)
	}
	// Third warp observes the same inter-thread stride: promoted, and even a
	// warp the entry has never seen gets chain prefetches.
	s2 := NewSnake()
	feedChain(s2, 3, 0x100, 0x108, 4096, 1<<20, 1)
	reqs = s2.OnAccess(ev(7, 0x100, 0x900000, 100))
	if !addrSet(reqs)[0x900000+4096] {
		t.Fatalf("promoted chain did not prefetch PC2's address: %v", reqs)
	}
}

func TestChainWalkDepth(t *testing.T) {
	cfg := Defaults()
	cfg.ChainDepth, cfg.ChainsOnly = 3, true
	s := New(cfg)
	// Build chain 0x100 -> 0x108 -> 0x110 with strides 64 and 128 across 3 warps.
	for w := 0; w < 3; w++ {
		base := uint64(0x10000 + w*0x1000)
		s.OnAccess(ev(w, 0x100, base, int64(w*10+1)))
		s.OnAccess(ev(w, 0x108, base+64, int64(w*10+2)))
		s.OnAccess(ev(w, 0x110, base+64+128, int64(w*10+3)))
	}
	reqs := s.OnAccess(ev(0, 0x100, 0x20000, 100))
	got := addrSet(reqs)
	if !got[0x20000+64] || !got[0x20000+64+128] {
		t.Fatalf("chain walk missed members: %v", reqs)
	}
}

func TestMismatchDemotesWarp(t *testing.T) {
	s := NewSnake()
	feedChain(s, 3, 0x100, 0x108, 4096, 1<<20, 1)
	// Warp 0 now diverges: same PCs, different stride.
	s.OnAccess(ev(0, 0x100, 0x800000, 200))
	s.OnAccess(ev(0, 0x108, 0x800000+999, 201))
	// The original entry lost warp 0 and support dropped below three: its
	// train status resets, so an unseen warp gets nothing from it.
	e := s.tail.find(0x100, 0x108, 4096)
	if e == nil {
		t.Fatal("original entry vanished")
	}
	if e.warpVec&1 != 0 {
		t.Error("warp 0's bit not cleared after mismatch")
	}
	if e.t1 != trainNone {
		t.Errorf("t1 = %b after support dropped, want not-trained", e.t1)
	}
}

func TestIntraWarpCase1ConsecutiveReexecution(t *testing.T) {
	s := NewSnake()
	// Single-PC loop: three warps each execute pc 0x100 twice with stride 512.
	for w := 0; w < 3; w++ {
		base := uint64(0x40000 + w*0x4000)
		s.OnAccess(ev(w, 0x100, base, int64(w*10+1)))
		s.OnAccess(ev(w, 0x100, base+512, int64(w*10+2)))
	}
	e := s.tail.findAnyPC1(0x100)
	if e == nil {
		t.Fatal("no tail entry for the looping PC")
	}
	if e.t2 < trainPromoted || e.intraStride != 512 {
		t.Fatalf("intra-warp stride not trained: t2=%b stride=%d", e.t2, e.intraStride)
	}
	// Generation now projects the next iteration.
	reqs := s.OnAccess(ev(0, 0x100, 0x40000+1024, 100))
	if !addrSet(reqs)[0x40000+1024+512] {
		t.Errorf("intra-warp projection missing: %v", reqs)
	}
}

func TestIntraWarpCase2LoopAccumulation(t *testing.T) {
	cfg := Defaults()
	cfg.InterWarpDegree = 0
	s := New(cfg)
	// Loop over two PCs: pc1 -> pc2 (stride +64), pc2 -> pc1' (stride +192):
	// the loop displacement for pc1 is 256.
	for w := 0; w < 3; w++ {
		base := uint64(0x50000 + w*0x8000)
		c := int64(w*20 + 1)
		for it := 0; it < 3; it++ {
			s.OnAccess(ev(w, 0x200, base, c))
			s.OnAccess(ev(w, 0x208, base+64, c+1))
			base += 256
			c += 2
		}
	}
	e := s.tail.findByPC1(0x200, 0)
	if e == nil {
		t.Fatal("no entry for loop head PC")
	}
	if e.t2 < trainPromoted {
		t.Fatalf("accumulated intra-warp stride not trained: t2=%b cand=%d", e.t2, e.intraCand)
	}
	if e.intraStride != 256 {
		t.Errorf("intra stride = %d, want 256 (accumulated around the loop)", e.intraStride)
	}
}

func TestInterWarpStrideNeedsThreeWarps(t *testing.T) {
	s := NewSnake()
	// Warps at fixed 4KB spacing run the same two-PC chain.
	feedChain(s, 2, 0x300, 0x308, 64, 4096, 1)
	e := s.tail.find(0x300, 0x308, 64)
	if e == nil {
		t.Fatal("entry missing")
	}
	if e.iwValid {
		t.Error("inter-warp stride valid after only 2 warps")
	}
	feedChain(s, 3, 0x300, 0x308, 64, 4096, 100)
	if !e.iwValid || e.interWarp != 4096 {
		t.Errorf("inter-warp stride not trained: valid=%v stride=%d", e.iwValid, e.interWarp)
	}
}

func TestTailEvictionPolicyLRUPlusPopcount(t *testing.T) {
	tt := newTailTable(2, true)
	a := tt.allocate()
	*a = tailEntry{valid: true, pc1: 1, warpVec: 0xFF} // strong entry
	tt.touch(a)
	b := tt.allocate()
	*b = tailEntry{valid: true, pc1: 2, warpVec: 0x1} // weak entry
	tt.touch(b)
	tt.touch(a) // a is now MRU
	v := tt.allocate()
	// With 2 entries the LRU group is the older half {b}; b has fewer bits.
	if v != b {
		t.Error("eviction should pick the weak LRU entry")
	}
}

func TestTailEvictionPopcountOnly(t *testing.T) {
	tt := newTailTable(2, false)
	a := tt.allocate()
	*a = tailEntry{valid: true, pc1: 1, warpVec: 0xFF}
	tt.touch(a)
	b := tt.allocate()
	*b = tailEntry{valid: true, pc1: 2, warpVec: 0x3}
	tt.touch(b)
	v := tt.allocate()
	if v != b {
		t.Error("popcount-only eviction should pick the fewest-bits entry")
	}
}

func TestBandwidthThrottleHysteresis(t *testing.T) {
	s := NewSnake()
	feedChain(s, 3, 0x100, 0x108, 4096, 1<<20, 1)
	env := &fakeEnv{util: 0.8, free: 0.5}
	s.OnCycle(100, env) // above 70%: halt
	// Probe with fresh warps so the probes themselves do not perturb the
	// trained chain entry.
	if reqs := s.OnAccess(ev(10, 0x100, 0x700000, 101)); len(reqs) != 0 {
		t.Fatalf("halted Snake still issued: %v", reqs)
	}
	env.util = 0.6 // between resume (50%) and halt: stays halted
	s.OnCycle(102, env)
	if reqs := s.OnAccess(ev(11, 0x100, 0x710000, 103)); len(reqs) != 0 {
		t.Fatal("hysteresis violated: resumed above the resume threshold")
	}
	env.util = 0.4 // below 50%: resume
	s.OnCycle(104, env)
	if reqs := s.OnAccess(ev(12, 0x100, 0x720000, 105)); len(reqs) == 0 {
		t.Fatal("Snake did not resume after utilization dropped")
	}
	if s.ThrottleCycles() == 0 {
		t.Error("throttled cycles not counted")
	}
}

func TestSpaceThrottleOnNoSpaceOutcome(t *testing.T) {
	s := NewSnake()
	feedChain(s, 3, 0x100, 0x108, 4096, 1<<20, 1)
	env := &fakeEnv{util: 0.1, free: 0}
	s.OnPrefetchOutcome(0x1000, prefetch.OutcomeNoSpace, 200, env)
	if env.confined != 200+int64(s.cfg.ThrottleCycles) {
		t.Errorf("L1 confined until %d, want %d", env.confined, 200+int64(s.cfg.ThrottleCycles))
	}
	if reqs := s.OnAccess(ev(10, 0x100, 0x700000, 210)); len(reqs) != 0 {
		t.Error("space-halted Snake still issued")
	}
	if reqs := s.OnAccess(ev(11, 0x100, 0x740000, 200+int64(s.cfg.ThrottleCycles)+1)); len(reqs) == 0 {
		t.Error("Snake did not resume after the halt interval")
	}
}

func TestDetectionContinuesWhileThrottled(t *testing.T) {
	s := NewSnake()
	env := &fakeEnv{util: 0.9, free: 0.5}
	s.OnCycle(1, env) // bw halt
	feedChain(s, 3, 0x400, 0x408, 128, 1<<20, 10)
	// Detection ran while halted: the entry exists and is promoted.
	e := s.tail.find(0x400, 0x408, 128)
	if e == nil || e.t1 < trainPromoted {
		t.Error("detection did not continue during throttle")
	}
}

func TestHeadTableDoubledColumnsSurviveInterleaving(t *testing.T) {
	// Two warps sharing a row interleave accesses; with 2 slots both warps'
	// history survives and tuples form for both.
	h := newHeadTable(1, 2)
	if _, ok := h.update(0, 0x100, 1000); ok {
		t.Fatal("first update produced a tuple")
	}
	if _, ok := h.update(1, 0x100, 2000); ok {
		t.Fatal("other warp's first update produced a tuple")
	}
	tp, ok := h.update(0, 0x108, 1064)
	if !ok || tp.pc1 != 0x100 || tp.stride != 64 {
		t.Fatalf("warp 0 tuple = %+v, %v", tp, ok)
	}
	tp, ok = h.update(1, 0x108, 2064)
	if !ok || tp.stride != 64 {
		t.Fatalf("warp 1 tuple lost with doubled columns: %+v, %v", tp, ok)
	}
}

func TestHeadTableSingleSlotThrashes(t *testing.T) {
	h := newHeadTable(1, 1)
	h.update(0, 0x100, 1000)
	h.update(1, 0x100, 2000) // displaces warp 0
	if _, ok := h.update(0, 0x108, 1064); ok {
		t.Error("single-slot head must lose warp 0's history under interleaving")
	}
}

func TestVariantsConfig(t *testing.T) {
	cases := []struct {
		s         *Snake
		name      string
		decoupled bool
		isolated  bool
		throttle  bool
		chains    bool
		intra     bool
	}{
		{NewSnake(), "snake", true, false, true, true, true},
		{NewSimpleSnake(), "s-snake", true, false, true, true, false},
		{NewSnakeDT(), "snake-dt", false, false, false, true, true},
		{NewSnakeT(), "snake-t", true, false, false, true, true},
		{NewIsolatedSnake(), "isolated-snake", false, true, true, true, true},
		{NewSnakePlusCTA(), "snake+cta", true, false, true, true, true},
	}
	for _, tc := range cases {
		if tc.s.Name() != tc.name {
			t.Errorf("Name = %q, want %q", tc.s.Name(), tc.name)
		}
		dec, iso := tc.s.Storage()
		cfg := tc.s.Config()
		if dec != tc.decoupled || iso != tc.isolated || cfg.DisableThrottle == tc.throttle ||
			cfg.DisableChains == tc.chains || cfg.ChainsOnly == tc.intra {
			t.Errorf("%s: config mismatch: %+v", tc.name, cfg)
		}
	}
}

func TestSnakePlusCTAComposes(t *testing.T) {
	s := NewSnakePlusCTA()
	// Feed CTA transitions so the CTA part trains.
	for c := 0; c < 3; c++ {
		e := prefetch.AccessEvent{
			Cycle: int64(c*10 + 1), WarpID: 0, PC: 0x100,
			Addr: uint64(0x1000 * (c + 1)), CTAID: c, CTABase: uint64(0x100000 * (c + 1)),
		}
		s.OnAccess(e)
	}
	e := prefetch.AccessEvent{Cycle: 100, WarpID: 0, PC: 0x100, Addr: 0x5000, CTAID: 3, CTABase: 0x400000}
	reqs := s.OnAccess(e)
	if !addrSet(reqs)[0x5000+0x100000] {
		t.Errorf("composed CTA-aware part did not project: %v", reqs)
	}
}

func TestResetClearsEverything(t *testing.T) {
	s := NewSnake()
	feedChain(s, 3, 0x100, 0x108, 4096, 1<<20, 1)
	if !s.Trained() {
		t.Fatal("setup: not trained")
	}
	s.Reset()
	if s.Trained() {
		t.Error("Trained survived Reset")
	}
	if reqs := s.OnAccess(ev(0, 0x100, 0x700000, 1000)); len(reqs) != 0 {
		t.Error("training survived Reset")
	}
}

func TestMaxRequestsPerAccessCap(t *testing.T) {
	cfg := Defaults()
	cfg.MaxRequestsPerAccess = 2
	s := New(cfg)
	feedChain(s, 3, 0x100, 0x108, 4096, 4096, 1)
	reqs := s.OnAccess(ev(0, 0x100, 0x700000, 100))
	if len(reqs) > 2 {
		t.Errorf("issued %d requests, cap is 2", len(reqs))
	}
}

func TestDefaultsValidation(t *testing.T) {
	d := Defaults()
	if d.TailEntries != 10 || d.HeadRows != 32 || d.PromoteWarps != 3 || d.ThrottleCycles != 50 {
		t.Errorf("paper defaults drifted: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("paper defaults invalid: %v", err)
	}
	// The zero config is not the defaults: New takes it literally, and
	// Validate rejects its zero Tail table by name.
	if err := (Config{}).Validate(); err == nil || !strings.Contains(err.Error(), "TailEntries 0") {
		t.Errorf("zero config: Validate() = %v, want an error naming TailEntries 0", err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("New accepted a zero HeadRows")
		} else if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "HeadRows 0") {
			t.Errorf("New panicked with %v, want Validate's error naming HeadRows 0", r)
		}
	}()
	cfg := d
	cfg.HeadRows = 0
	New(cfg)
}

func TestBulkPromotionBurst(t *testing.T) {
	cfg := Defaults()
	cfg.BulkPromotionWarps = 16
	cfg.MaxRequestsPerAccess = 4 // the burst bypasses this cap
	s := New(cfg)
	// Train chain and inter-warp stride together: warps at 4KB spacing.
	// The promotion and the inter-warp stride both complete on warp 2's
	// second access (to PC2), so the PC1 entry's burst is still pending.
	feedChain(s, 3, 0x500, 0x508, 64, 4096, 1)
	// The next PC1 access — by a fresh warp, so its own history cannot
	// perturb the entry — triggers the one-time burst.
	reqs := s.OnAccess(ev(9, 0x500, 0x200000, 100))
	got := addrSet(reqs)
	covered := 0
	for k := 1; k <= 16; k++ {
		if got[uint64(0x200000+k*4096)] {
			covered++
		}
	}
	if covered < 12 {
		t.Fatalf("burst covered %d/16 future warps: %v", covered, reqs)
	}
	// One-time only: the next access falls back to the rolling window.
	reqs = s.OnAccess(ev(10, 0x500, 0x300000, 101))
	if len(reqs) > cfg.MaxRequestsPerAccess {
		t.Errorf("second access issued %d requests; burst must be one-time", len(reqs))
	}
}
