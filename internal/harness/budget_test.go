package harness

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBudgetBoundsConcurrentUse(t *testing.T) {
	const slots = 3
	b := NewBudget(slots)
	var inUse, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Acquire(context.Background()); err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			cur := inUse.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inUse.Add(-1)
			b.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > slots {
		t.Errorf("peak concurrent slot use %d exceeds budget %d", p, slots)
	}
}

func TestBudgetCancellationUnblocksQueue(t *testing.T) {
	b := NewBudget(1)
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A request waiting on the full budget returns the context error once
	// canceled, and takes no slot.
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error)
	go func() { canceled <- b.Acquire(ctx) }()
	cancel()
	if err := <-canceled; err == nil {
		t.Fatal("canceled Acquire returned nil, want the context error")
	}

	// A request waiting alongside it is admitted once the slot comes back.
	granted := make(chan struct{})
	go func() {
		if err := b.Acquire(context.Background()); err != nil {
			t.Errorf("queued Acquire: %v", err)
		}
		close(granted)
		b.Release()
	}()
	b.Release()
	select {
	case <-granted:
	case <-time.After(time.Second):
		t.Fatal("request behind the canceled one never granted")
	}

	// The slot must be back: an acquire with an expiring context succeeds.
	tctx, tcancel := context.WithTimeout(context.Background(), time.Second)
	defer tcancel()
	if err := b.Acquire(tctx); err != nil {
		t.Fatalf("post-cancellation Acquire: %v: slot leak", err)
	}
	b.Release()
}
