package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"snake/internal/workloads"
)

func TestMissInjectPerSM(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	opt := Options{Config: tinyCfg()}
	e := newEngine(k, opt)
	e.net.tick(1)
	// Queue one more demand miss than the per-cycle injection budget on SM 0
	// (distinct lines, so no MSHR merging).
	s := e.shards[0].sm
	for i := 0; i < missInjectPerSM+1; i++ {
		s.l1.Access(i, 0x1000_0000+uint64(i)*8192, 1)
	}
	if got := s.l1.DemandQueueLen(); got != missInjectPerSM+1 {
		t.Fatalf("staged %d demand misses, want %d", got, missInjectPerSM+1)
	}
	// Misses staged at cycle 1 mature at 1+horizon; a drain before that pulls
	// nothing no matter how idle the network is.
	e.drainMissQueues(e.horizon)
	if e.inflight != 0 {
		t.Errorf("injected %d fill requests before the slack horizon matured", e.inflight)
	}
	c := 1 + e.horizon
	e.cycle = c
	e.net.tick(c)
	e.drainMissQueues(c)
	if e.inflight != missInjectPerSM {
		t.Errorf("injected %d fill requests in one cycle, want exactly missInjectPerSM=%d",
			e.inflight, missInjectPerSM)
	}
	if got := s.l1.DemandQueueLen(); got != 1 {
		t.Errorf("%d misses left queued after one drain, want 1", got)
	}
	// The next cycle's drain picks up the leftover.
	e.cycle = c + 1
	e.net.tick(c + 1)
	e.drainMissQueues(c + 1)
	if e.inflight != missInjectPerSM+1 || s.l1.DemandQueueLen() != 0 {
		t.Errorf("after second drain: inflight=%d queued=%d, want %d and 0",
			e.inflight, s.l1.DemandQueueLen(), missInjectPerSM+1)
	}
}

// TestDrainStoresCompactsInPlace pins the store queue's bookkeeping: (a)
// sent batches are compacted out in place, so a queue that cycles through
// its capacity many times never reallocates; (b) a batch the request
// network's bandwidth cuts short keeps its remaining count at the head and
// resumes the next cycle, ahead of every later batch, and every store is
// sent exactly once.
func TestDrainStoresCompactsInPlace(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	opt := Options{Config: tinyCfg()}
	e := newEngine(k, opt)

	const depth = 64
	// Top the queue up with one-store batches, as the epoch merge appends
	// them.
	fill := func(c int64) {
		for len(e.stores) < depth {
			e.stores = append(e.stores, storeBatch{cycle: c, n: 1})
		}
	}
	fill(0)
	capInit := cap(e.stores)
	drained := 0
	for c := int64(1); c <= 200; c++ {
		e.cycle = c
		e.net.tick(c)
		before := len(e.stores)
		e.drainStores(c + e.horizon) // matured: only bandwidth gates the drain
		drained += before - len(e.stores)
		fill(c)
	}
	if drained == 0 {
		t.Fatal("no stores drained in 200 cycles")
	}
	if cap(e.stores) != capInit {
		t.Errorf("store queue reallocated: cap %d -> %d", capInit, cap(e.stores))
	}

	e = newEngine(k, opt)
	const big, later = 1000, 5
	e.stores = append(e.stores, storeBatch{cycle: 0, n: big}, storeBatch{cycle: 1, n: later})
	sent := func() int64 { return e.net.req.TotalBytes() / storeBytes }
	cycles := 0
	for c := e.horizon + 1; len(e.stores) > 0; c++ {
		if c > e.horizon+big+later {
			t.Fatalf("queue still holds %+v after %d cycles", e.stores, cycles)
		}
		e.net.tick(c)
		e.drainStores(c)
		cycles++
		if len(e.stores) == 2 {
			if got, want := int64(e.stores[0].n), big-sent(); got != want {
				t.Fatalf("cycle %d: head batch holds %d stores, want %d unsent", c, got, want)
			}
			if e.stores[1].n != later {
				t.Fatalf("cycle %d: the later batch was sent before the cut-short head finished", c)
			}
		}
	}
	if got := sent(); got != big+later {
		t.Errorf("sent %d stores, want %d", got, big+later)
	}
	if cycles < 2 {
		t.Error("the big batch drained in one cycle: no carry-over exercised")
	}
}

// countdownCtx returns nil from Err for the first ok calls, then a canceled
// error forever after. It makes the engine's poll sequence observable.
type countdownCtx struct {
	context.Context
	calls int
	ok    int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.ok {
		return context.Canceled
	}
	return nil
}

func TestCancellationPollBoundary(t *testing.T) {
	// A kernel long enough that the engine reaches the first poll boundary.
	k := workloads.StreamMicro(workloads.Scale{CTAs: 8, WarpsPerCTA: 4, Iters: 32}, 4096)
	base, err := Run(k, Options{Config: tinyCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Cycles <= ctxCheckInterval {
		t.Fatalf("kernel finishes in %d cycles, need > %d for the poll to fire",
			base.Stats.Cycles, ctxCheckInterval)
	}
	// Cancellation is visible from the first in-loop poll on, so the abort
	// must land on the first ctxCheckInterval boundary.
	want := fmt.Sprintf("aborted at cycle %d", int64(ctxCheckInterval))
	ctx := &countdownCtx{Context: context.Background(), ok: 0}
	e := newEngine(k, Options{Config: tinyCfg(), Context: ctx})
	err = e.run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want abort at the first poll boundary (%q)", err, want)
	}
	// The first failing poll aborts immediately: no further Err calls.
	if ctx.calls != 1 {
		t.Errorf("%d Err calls, want 1 (abort on the first poll)", ctx.calls)
	}
}
