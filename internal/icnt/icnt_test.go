package icnt

import (
	"testing"
	"testing/quick"
)

func TestSerializationDelay(t *testing.T) {
	n := New(Config{BytesPerCycle: 128, Latency: 10})
	n.Tick(1)
	// First packet: one cycle of link time + latency.
	at1, ok := n.TrySend(128)
	if !ok || at1 != 1+1+10 {
		t.Fatalf("first send: (%d,%v), want (12,true)", at1, ok)
	}
	// Second packet queues behind the first.
	at2, ok := n.TrySend(128)
	if !ok || at2 != at1+1 {
		t.Fatalf("second send: (%d,%v), want (%d,true)", at2, ok, at1+1)
	}
}

func TestSmallPacketsShareACycle(t *testing.T) {
	n := New(Config{BytesPerCycle: 128, Latency: 0})
	n.Tick(1)
	a, _ := n.TrySend(8)
	b, _ := n.TrySend(8)
	if a != b {
		t.Errorf("two 8B packets deliver at %d and %d; both fit in one cycle", a, b)
	}
}

func TestBacklogBoundRefuses(t *testing.T) {
	n := New(Config{BytesPerCycle: 1, Latency: 0, MaxBacklogCycles: 4})
	n.Tick(1)
	sent := 0
	for i := 0; i < 100; i++ {
		if _, ok := n.TrySend(1); ok {
			sent++
		} else {
			break
		}
	}
	if sent < 4 || sent > 6 {
		t.Errorf("sent %d one-byte packets before refusal, want ~5", sent)
	}
	// After refusal, advancing time frees the backlog.
	n.Tick(100)
	if _, ok := n.TrySend(1); !ok {
		t.Error("send after draining must succeed")
	}
}

func TestUtilizationWindow(t *testing.T) {
	n := New(Config{BytesPerCycle: 100, Latency: 0, WindowCycles: 10})
	for c := int64(1); c <= 10; c++ {
		n.Tick(c)
		n.TrySend(50) // half capacity
	}
	u := n.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Errorf("utilization = %.3f, want ~0.5", u)
	}
	// Idle cycles decay the window.
	for c := int64(11); c <= 20; c++ {
		n.Tick(c)
	}
	if u := n.Utilization(); u != 0 {
		t.Errorf("utilization after idle window = %.3f, want 0", u)
	}
}

func TestTotalsAndPeak(t *testing.T) {
	n := New(Config{BytesPerCycle: 64, Latency: 5})
	n.Tick(1)
	n.TrySend(64)
	n.TrySend(32)
	if n.TotalBytes() != 96 {
		t.Errorf("TotalBytes = %d", n.TotalBytes())
	}
	if n.PeakBytes(10) != 640 {
		t.Errorf("PeakBytes(10) = %d", n.PeakBytes(10))
	}
	if n.Latency() != 5 {
		t.Errorf("Latency = %d", n.Latency())
	}
}

func TestDeliveryMonotonic(t *testing.T) {
	// Property: delivery cycles of successive sends never decrease.
	f := func(sizes []uint8) bool {
		n := New(Config{BytesPerCycle: 32, Latency: 7, MaxBacklogCycles: 1 << 30})
		n.Tick(1)
		last := int64(0)
		for _, s := range sizes {
			at, ok := n.TrySend(int(s%64) + 1)
			if !ok {
				continue
			}
			if at < last {
				return false
			}
			last = at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBacklogReporting(t *testing.T) {
	n := New(Config{BytesPerCycle: 10, Latency: 0, MaxBacklogCycles: 100})
	n.Tick(1)
	if n.Backlog() != 0 {
		t.Errorf("initial backlog = %d", n.Backlog())
	}
	n.TrySend(100) // 10 cycles of link time
	if b := n.Backlog(); b < 9 || b > 10 {
		t.Errorf("backlog = %d, want ~10", b)
	}
}

func TestTickFastForwardMatchesPerCycle(t *testing.T) {
	mk := func() *Network {
		n := New(Config{BytesPerCycle: 32, Latency: 3, WindowCycles: 16})
		for c := int64(1); c <= 5; c++ {
			n.Tick(c)
			n.TrySend(24)
		}
		return n
	}
	// One Tick spanning more than a full window vs rolling the same span
	// cycle by cycle: all observable and internal state must coincide.
	const target = 5 + 16 + 7
	jump, walk := mk(), mk()
	jump.Tick(target)
	for c := int64(6); c <= target; c++ {
		walk.Tick(c)
	}
	if jump.cycle != walk.cycle || jump.nextFree != walk.nextFree ||
		jump.windowSum != walk.windowSum || jump.windowPos != walk.windowPos ||
		jump.usedThis != walk.usedThis {
		t.Errorf("multi-cycle Tick state (cycle=%d nextFree=%d sum=%d pos=%d used=%d) != per-cycle (cycle=%d nextFree=%d sum=%d pos=%d used=%d)",
			jump.cycle, jump.nextFree, jump.windowSum, jump.windowPos, jump.usedThis,
			walk.cycle, walk.nextFree, walk.windowSum, walk.windowPos, walk.usedThis)
	}
	if jump.Utilization() != walk.Utilization() {
		t.Errorf("utilization %f != %f after jump", jump.Utilization(), walk.Utilization())
	}
	// Subsequent traffic behaves identically on both.
	a, aok := jump.TrySend(40)
	b, bok := walk.TrySend(40)
	if a != b || aok != bok {
		t.Errorf("post-jump send: (%d,%v) != (%d,%v)", a, aok, b, bok)
	}
}
