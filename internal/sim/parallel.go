package sim

import (
	"sync"
	"sync/atomic"
)

// workUnit is one schedulable unit of the parallel phase: an SM shard or a
// memory partition. Units are data-disjoint during tick spans — shards own
// their SM-private state, partitions own disjoint line-address sets — which
// is what lets the group run any subset of them concurrently.
type workUnit interface {
	tickSpan(from, to int64)
}

// shardGroup is the barrier-worker group of one engine run: it ticks work
// units one slack epoch at a time, with a barrier on each side of the
// parallel phase. The calling (engine) goroutine is participant 0 and runs
// its own stripe, so Parallelism=N uses N-1 extra goroutines. The workers
// live for exactly one engine.run call: start launches them, and stop (which
// run defers) returns only once every one has exited, so no goroutine
// outlives the run and the next run may reinitialize the group in place.
//
// Determinism does not depend on the group at all: units are data-disjoint
// during tick spans (see workUnit), so any interleaving computes the same
// state. The group only has to provide the two happens-before edges of the
// epoch:
//
//	engine's serial writes → release (epoch increment, atomic) → worker spans
//	worker spans → arrive (counter increment, atomic) → engine's serial reads
//
// An epoch is normally one combined wave over all units; with phase profiling
// enabled the engine instead runs two waves (partitions, then shards) via
// runSpan so the two halves' wall clocks are separable. Either schedule
// computes identical state — the units stay disjoint regardless of grouping.
//
// Waiters spin briefly, then park on a condition variable instead of
// yield-spinning: on a loaded or single-core machine a Gosched loop burns
// exactly the core the engine needs, whereas a parked worker costs nothing
// until the engine wakes it. The wake-side epoch increment is atomic and
// happens before the broadcast under the same mutex the waiter re-checks
// under, so no wakeup can be lost.
//
// The group is embedded in the engine by value and reused by every run, so
// starting one allocates only the worker goroutines.
type shardGroup struct {
	n int // participants, including the engine goroutine

	// Wave payload: plain fields, written by the engine before the epoch
	// release and read by workers after observing it.
	units    []workUnit
	from, to int64
	lo, hi   int // unit span for the current wave
	quit     bool

	epoch   atomic.Uint64
	arrived atomic.Int64
	exited  sync.WaitGroup

	mu       sync.Mutex
	wake     sync.Cond // workers park here awaiting the next wave
	done     sync.Cond // the engine parks here awaiting stragglers
	sleepers int       // workers currently parked on wake
	joinWait bool      // engine currently parked on done
}

// start launches n-1 workers over units. n must be ≥ 2; a wave whose span is
// narrower than n leaves the surplus workers idling at that wave's barrier.
// The previous run's workers have all exited (stop waited for them), so the
// group's counters can be reset without racing any of them.
func (g *shardGroup) start(units []workUnit, n int) {
	g.n, g.units, g.quit = n, units, false
	g.epoch.Store(0)
	g.arrived.Store(0)
	g.wake.L, g.done.L = &g.mu, &g.mu
	g.exited.Add(n - 1)
	for w := 1; w < n; w++ {
		go g.worker(w)
	}
}

// runSpan ticks units [lo, hi) for the epoch [from, to] as one barrier wave
// and returns after all of them finished.
func (g *shardGroup) runSpan(from, to int64, lo, hi int) {
	g.from, g.to, g.lo, g.hi = from, to, lo, hi
	g.release()
	for i := lo; i < hi; i += g.n {
		g.units[i].tickSpan(from, to)
	}
	g.join()
}

// stop terminates the workers and returns once all of them have exited.
func (g *shardGroup) stop() {
	g.quit = true
	g.release()
	g.exited.Wait()
}

// release opens the next wave: the epoch increment is the release edge, and
// any parked workers are woken under the mutex afterwards. A worker that is
// between its epoch check and its Wait holds the mutex, so the broadcast
// cannot slip into that gap.
func (g *shardGroup) release() {
	g.epoch.Add(1)
	g.mu.Lock()
	if g.sleepers > 0 {
		g.wake.Broadcast()
	}
	g.mu.Unlock()
}

// join waits until every worker has arrived at the barrier, then resets the
// arrival counter for the next wave. Workers never touch the counter again
// until they observe that next wave, so the reset cannot race.
func (g *shardGroup) join() {
	target := int64(g.n - 1)
	for spins := 0; spins < spinLimit; spins++ {
		if g.arrived.Load() >= target {
			g.arrived.Store(0)
			return
		}
	}
	g.mu.Lock()
	g.joinWait = true
	for g.arrived.Load() < target {
		g.done.Wait()
	}
	g.joinWait = false
	g.mu.Unlock()
	g.arrived.Store(0)
}

// worker runs the stripe of each wave's span with offset ≡ w (mod n).
func (g *shardGroup) worker(w int) {
	defer g.exited.Done()
	for epoch := uint64(1); ; epoch++ {
		g.awaitEpoch(epoch)
		if g.quit {
			return
		}
		from, to := g.from, g.to
		for i := g.lo + w; i < g.hi; i += g.n {
			g.units[i].tickSpan(from, to)
		}
		g.arrive()
	}
}

// awaitEpoch blocks until the group's epoch reaches target: a short spin for
// the hot all-cores-running case, then a parked wait.
func (g *shardGroup) awaitEpoch(target uint64) {
	for spins := 0; spins < spinLimit; spins++ {
		if g.epoch.Load() >= target {
			return
		}
	}
	g.mu.Lock()
	for g.epoch.Load() < target {
		g.sleepers++
		g.wake.Wait()
		g.sleepers--
	}
	g.mu.Unlock()
}

// arrive reports this worker's wave completion; the last arrival wakes a
// parked engine.
func (g *shardGroup) arrive() {
	if g.arrived.Add(1) == int64(g.n-1) {
		g.mu.Lock()
		if g.joinWait {
			g.done.Signal()
		}
		g.mu.Unlock()
	}
}

// spinLimit is how many tight polls to attempt before parking. Barriers open
// within nanoseconds when all participants are running; the park path exists
// for oversubscribed machines, where continuing to spin would steal the very
// core the still-working participant needs.
const spinLimit = 128
