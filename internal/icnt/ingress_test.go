package icnt

import "testing"

func TestIngressFIFOWithinCycle(t *testing.T) {
	var q Ingress[int]
	// Several messages due at the same cycle must drain in push order — the
	// deterministic merge order the parallel engine depends on.
	for i := 0; i < 5; i++ {
		q.Push(10, i)
	}
	q.Push(12, 5)
	for i := 0; i < 5; i++ {
		v, ok := q.PopDue(10)
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v, want FIFO order", i, v, ok)
		}
	}
	if _, ok := q.PopDue(11); ok {
		t.Error("popped a message before its stamp")
	}
	if v, ok := q.PopDue(12); !ok || v != 5 {
		t.Errorf("final pop = %d, %v", v, ok)
	}
}

func TestIngressNextCycleAndLen(t *testing.T) {
	var q Ingress[string]
	if q.NextCycle() != -1 {
		t.Errorf("empty NextCycle = %d, want -1", q.NextCycle())
	}
	q.Push(7, "a")
	q.Push(9, "b")
	if q.NextCycle() != 7 || q.Len() != 2 {
		t.Errorf("NextCycle=%d Len=%d, want 7 and 2", q.NextCycle(), q.Len())
	}
	q.PopDue(7)
	if q.NextCycle() != 9 || q.Len() != 1 {
		t.Errorf("after pop: NextCycle=%d Len=%d, want 9 and 1", q.NextCycle(), q.Len())
	}
}

func TestIngressRejectsBackwardsStamp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("decreasing stamp did not panic")
		}
	}()
	var q Ingress[int]
	q.Push(10, 0)
	q.Push(9, 1)
}

func TestIngressRingReuse(t *testing.T) {
	var q Ingress[int]
	// Warm the ring to a fixed occupancy, then cycle many messages through
	// it: the backing array must not grow once traffic is steady.
	for i := 0; i < 16; i++ {
		q.Push(int64(i), i)
	}
	capBefore := len(q.buf)
	for c := int64(16); c < 4096; c++ {
		if _, ok := q.PopDue(c); !ok {
			t.Fatalf("cycle %d: queue unexpectedly empty", c)
		}
		q.Push(c, int(c))
	}
	if len(q.buf) != capBefore {
		t.Errorf("steady-state traffic grew the ring: %d -> %d", capBefore, len(q.buf))
	}
}

func TestIngressGrowPreservesOrder(t *testing.T) {
	var q Ingress[int]
	// Force several grows with a rotated head so the unroll path is hit.
	for i := 0; i < 3; i++ {
		q.Push(int64(i), i)
	}
	for i := 0; i < 2; i++ {
		q.PopDue(2)
	}
	for i := 3; i < 100; i++ {
		q.Push(int64(i), i)
	}
	want := 2
	for {
		v, ok := q.PopDue(1 << 40)
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("order broken after grow: got %d, want %d", v, want)
		}
		want++
	}
	if want != 100 {
		t.Errorf("drained %d messages, want through 99", want-2)
	}
}
