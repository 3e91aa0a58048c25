package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// Runner executes (benchmark, mechanism) simulations with memoization and a
// bounded worker pool, since the figure experiments share most of their
// underlying runs (e.g. Figures 16–19 all read the same eleven×ten grid).
//
// Successful runs are memoized forever (the simulations are deterministic);
// failed runs are never cached, so callers can retry transient failures such
// as context cancellation.
type Runner struct {
	// Cfg and Scale shape the memoized runs (Key); the snaked service holds
	// a runner whose Cfg and Scale are its defaults.
	Cfg   config.GPU
	Scale workloads.Scale
	// Budget bounds this runner's CPU use — one slot per running
	// simulation; NewRunner wires the process-wide SharedBudget so runner
	// pools and the snaked service cannot oversubscribe the host between
	// them.
	Budget *Budget
	// Store interns built kernel traces; nil uses the process-wide
	// workloads.Shared() store, so every runner (and the snaked service)
	// builds each (bench, Scale) trace once and shares it read-only.
	Store *workloads.Store
	// Engines recycles simulation engines between runs; nil uses the
	// process-wide SharedEnginePool().
	Engines *EnginePool
	// PhaseProfile, when non-nil, is handed to every simulation this runner
	// actually executes (memoized cache hits add nothing), accumulating the
	// engines' per-phase wall clock. The accumulator is unsynchronized: only
	// attach one to a runner that executes runs sequentially (no Prefill).
	PhaseProfile *profiling.Phases

	mu    sync.Mutex
	cache map[string]*runResult
}

// runResult is one in-flight or completed simulation. The creating goroutine
// executes the run and closes done; waiters block on done (or their own
// context). On failure the entry is removed from the cache before done is
// closed, so a retrying caller always finds either a fresh slot or a
// successful result.
type runResult struct {
	done chan struct{}
	st   *stats.Sim
	err  error
}

// NewRunner returns a runner with the standard experiment configuration:
// 4 SMs × 64 warps, default workload scale.
func NewRunner() *Runner {
	return &Runner{
		Cfg:    config.Scaled(4, 64),
		Scale:  workloads.DefaultScale(),
		Budget: SharedBudget(),
		cache:  make(map[string]*runResult),
	}
}

// Key returns the content-address of a (bench, mech) run under this runner's
// configuration — the same key the snaked service cache uses.
func (r *Runner) Key(bench, mech string) RunKey {
	return RunKey{Bench: bench, Mech: mech, GPU: r.Cfg, Scale: r.Scale}
}

// Run simulates the benchmark under the named mechanism (memoized).
func (r *Runner) Run(bench, mech string) (*stats.Sim, error) {
	return r.RunCtx(context.Background(), bench, mech)
}

// RunCtx is Run with cancellation: the context aborts the simulation's cycle
// loop (if this caller started it) or just this caller's wait (if another
// caller is already running the same key).
func (r *Runner) RunCtx(ctx context.Context, bench, mech string) (*stats.Sim, error) {
	return r.run(ctx, r.Key(bench, mech), nil)
}

// SnakeVariant simulates the benchmark under a custom Snake configuration
// (memoized by the configuration's content).
func (r *Runner) SnakeVariant(bench string, cfg core.Config) (*stats.Sim, error) {
	key := r.Key(bench, CustomSnake)
	key.Snake = &cfg
	return r.run(context.Background(), key, nil)
}

// runKernel memoizes a simulation of an explicitly built kernel, keyed by a
// synthetic benchmark name.
func (r *Runner) runKernel(k *trace.Kernel, bench, mech string) (*stats.Sim, error) {
	return r.run(context.Background(), r.Key(bench, mech), k)
}

// run is the memoized path: one simulate per distinct key.
func (r *Runner) run(ctx context.Context, key RunKey, k *trace.Kernel) (*stats.Sim, error) {
	res, err := r.memoize(ctx, key.Hash(), func(res *runResult) {
		res.st, res.err = r.simulate(ctx, key, k)
	})
	if err != nil {
		return nil, err
	}
	return res.st, nil
}

// memoize runs fill under the cache discipline for key: exactly one caller
// fills a fresh slot, concurrent callers of the same key wait on it, and
// failed fills are dropped so any waiter (or later caller) re-attempts under
// its own context.
func (r *Runner) memoize(ctx context.Context, key string, fill func(*runResult)) (*runResult, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.mu.Lock()
		res, ok := r.cache[key]
		if !ok {
			res = &runResult{done: make(chan struct{})}
			r.cache[key] = res
			r.mu.Unlock()
			fill(res)
			if res.err != nil {
				// Failures are not cached: drop the entry (unless a retry
				// already replaced it) so later callers re-attempt.
				r.mu.Lock()
				if r.cache[key] == res {
					delete(r.cache, key)
				}
				r.mu.Unlock()
			}
			close(res.done)
			return res, res.err
		}
		r.mu.Unlock()
		select {
		case <-res.done:
			if res.err == nil {
				return res, nil
			}
			// The executing caller failed (possibly its own cancellation);
			// loop and retry under our context.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Simulate runs the key once, uncached, under ctx; the key should be
// normalized (RunKey.Normalize). It is the one execution path of the
// runner's memoized methods and of the snaked service.
func (r *Runner) Simulate(ctx context.Context, key RunKey) (*stats.Sim, error) {
	return r.simulate(ctx, key, nil)
}

// simulate holds one slot of the CPU budget for the run's duration, resolves
// the key's prefetcher factory, interns its kernel (unless k is given) and
// runs it on a pooled engine. Errors past the budget name the run.
func (r *Runner) simulate(ctx context.Context, key RunKey, k *trace.Kernel) (*stats.Sim, error) {
	budget := r.budget()
	if err := budget.Acquire(ctx); err != nil {
		return nil, err
	}
	defer budget.Release()
	f, tag, err := key.factory()
	if err == nil && k == nil {
		k, err = r.store().Kernel(key.Bench, key.Scale)
	}
	var out *sim.Result
	if err == nil {
		out, err = r.engines().Run(k, sim.Options{
			Config:        key.GPU,
			NewPrefetcher: f,
			Context:       ctx,
			PhaseProfile:  r.PhaseProfile,
		}, tag)
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", key.Bench, key.Mech, err)
	}
	return &out.Stats, nil
}

// factory resolves the key's prefetcher factory and its reuse tag. A
// registry mechanism's tag is its name, so a pooled engine whose last run was
// the same mechanism resets its prefetchers instead of building new ones (the
// tag does not choose the engine). A custom Snake config gets the empty tag:
// CustomSnake does not identify one configuration.
func (k RunKey) factory() (Factory, string, error) {
	if k.Snake != nil {
		cfg := *k.Snake
		return func(int) prefetch.Prefetcher { return core.New(cfg) }, "", nil
	}
	f, err := Mechanism(k.Mech)
	return f, k.Mech, err
}

// budget returns the runner's CPU budget (the process-wide one when unset).
func (r *Runner) budget() *Budget {
	if r.Budget != nil {
		return r.Budget
	}
	return SharedBudget()
}

// store returns the runner's kernel store (the process-wide one when unset).
func (r *Runner) store() *workloads.Store {
	if r.Store != nil {
		return r.Store
	}
	return workloads.Shared()
}

// engines returns the runner's engine pool (the process-wide one when unset).
func (r *Runner) engines() *EnginePool {
	if r.Engines != nil {
		return r.Engines
	}
	return SharedEnginePool()
}

// Prefill launches the given (bench, mech) grid concurrently and waits; it
// exists so experiments reading a big grid pay wall-clock ≈ grid/#cores.
// All cells are attempted; every failure is reported via errors.Join rather
// than only the first.
func (r *Runner) Prefill(benches, mechs []string) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(benches)*len(mechs))
	for _, b := range benches {
		for _, m := range mechs {
			wg.Add(1)
			go func(b, m string) {
				defer wg.Done()
				if _, err := r.Run(b, m); err != nil {
					errCh <- err
				}
			}(b, m)
		}
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
