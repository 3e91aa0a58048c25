package harness

import (
	"context"
	"runtime"
	"sync"
)

// Budget is a CPU-slot semaphore. Everything in one process that runs
// simulations — the harness runner's worker pool and the snaked service's
// job workers — draws from one shared Budget, so the number of simulations
// running at once never exceeds the machine, no matter how the two pools are
// configured. Each running simulation holds one slot: the engine is serial.
type Budget struct {
	slots chan struct{}
}

// NewBudget returns a budget of n CPU slots (n < 1 is treated as 1).
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	return &Budget{slots: make(chan struct{}, n)}
}

var (
	sharedOnce sync.Once
	shared     *Budget
)

// SharedBudget returns the process-wide budget, sized to GOMAXPROCS at first
// use. It is the default for NewRunner and the snaked service, which is what
// makes their combined footprint bounded.
func SharedBudget() *Budget {
	sharedOnce.Do(func() { shared = NewBudget(runtime.GOMAXPROCS(0)) })
	return shared
}

// Acquire blocks until a slot is free (or ctx is done) and takes it.
func (b *Budget) Acquire(ctx context.Context) error {
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (b *Budget) Release() {
	select {
	case <-b.slots:
	default:
		panic("harness: Budget.Release without matching Acquire")
	}
}
