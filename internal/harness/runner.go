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
	Cfg   config.GPU
	Scale workloads.Scale
	// Split is the tenant-0 SM share for application runs that partition the
	// machine (0: an even halving). It shapes the assembled app's SM masks
	// and therefore participates in keys via the app's content digest.
	Split int
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
// successful result. Kernel runs fill st; application runs fill app (and st
// with the aggregate) — the key namespaces never collide because app keys
// carry the AppDigest field.
type runResult struct {
	done chan struct{}
	st   *stats.Sim
	app  *sim.AppResult
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
	return r.RunWithCtx(ctx, bench, mech, nil)
}

// RunWith is RunWithCtx without cancellation; mech must uniquely identify
// the factory's configuration for memoization. A nil factory resolves mech
// from the registry.
func (r *Runner) RunWith(bench, mech string, factory Factory) (*stats.Sim, error) {
	return r.RunWithCtx(context.Background(), bench, mech, factory)
}

// RunWithCtx is Run with a custom prefetcher factory and cancellation.
func (r *Runner) RunWithCtx(ctx context.Context, bench, mech string, factory Factory) (*stats.Sim, error) {
	return r.run(ctx, r.Key(bench, mech).Hash(), bench+"|"+mech, mech, factory, func() (*trace.Kernel, error) {
		return r.store().Kernel(bench, r.Scale)
	})
}

// runKernel memoizes a simulation of an explicitly built kernel.
func (r *Runner) runKernel(k *trace.Kernel, key, mech string) (*stats.Sim, error) {
	return r.run(context.Background(), r.Key(key, mech).Hash(), key+"|"+mech, mech, nil,
		func() (*trace.Kernel, error) { return k, nil })
}

func (r *Runner) run(ctx context.Context, key, label, mech string, factory Factory, build func() (*trace.Kernel, error)) (*stats.Sim, error) {
	res, err := r.memoize(ctx, key, func(res *runResult) {
		r.execute(ctx, res, label, mech, factory, build)
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

// execute performs the simulation for one cache entry, holding one slot of
// the CPU budget for the run's duration.
func (r *Runner) execute(ctx context.Context, res *runResult, label, mech string, factory Factory, build func() (*trace.Kernel, error)) {
	budget := r.budget()
	if res.err = budget.Acquire(ctx); res.err != nil {
		return
	}
	defer budget.Release()
	f := factory
	if f == nil {
		if f, res.err = Mechanism(mech); res.err != nil {
			return
		}
	}
	k, err := build()
	if err != nil {
		res.err = err
		return
	}
	// Registry mechanisms carry their name as the prefetcher-reuse tag, so a
	// pooled engine whose last run was the same mechanism resets its
	// prefetchers instead of building new ones; the tag does not choose the
	// engine. Custom factories get the empty tag (their mech labels, e.g.
	// "snake:"+key, are only unique within one runner's cache, not across
	// the shared pool).
	tag := mech
	if factory != nil {
		tag = ""
	}
	out, err := r.engines().Run(k, sim.Options{
		Config:        r.Cfg,
		NewPrefetcher: f,
		Context:       ctx,
		PhaseProfile:  r.PhaseProfile,
	}, tag)
	if err != nil {
		res.err = fmt.Errorf("%s: %w", label, err)
		return
	}
	res.st = &out.Stats
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
func (r *Runner) Prefill(benches, mechs []string) error {
	return r.PrefillCtx(context.Background(), benches, mechs)
}

// PrefillCtx is Prefill with cancellation. All cells are attempted; every
// failure is reported via errors.Join rather than only the first.
func (r *Runner) PrefillCtx(ctx context.Context, benches, mechs []string) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(benches)*len(mechs))
	for _, b := range benches {
		for _, m := range mechs {
			wg.Add(1)
			go func(b, m string) {
				defer wg.Done()
				if _, err := r.RunCtx(ctx, b, m); err != nil {
					errCh <- fmt.Errorf("%s/%s: %w", b, m, err)
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

// SnakeVariant builds a memoized custom Snake configuration run.
func (r *Runner) SnakeVariant(bench, key string, cfg core.Config) (*stats.Sim, error) {
	return r.SnakeVariantCtx(context.Background(), bench, key, cfg)
}

// SnakeVariantCtx is SnakeVariant with cancellation.
func (r *Runner) SnakeVariantCtx(ctx context.Context, bench, key string, cfg core.Config) (*stats.Sim, error) {
	return r.RunWithCtx(ctx, bench, "snake:"+key, func(int) prefetch.Prefetcher { return core.New(cfg) })
}

// AppKey returns the content-address of an (app, mech, chain) run under this
// runner's configuration. It interns the app (assembling it on first use for
// this machine's SM count and the runner's Split) to obtain the content
// digest that distinguishes the same app name across partition geometries.
func (r *Runner) AppKey(app, mech string, chain bool) (RunKey, error) {
	_, digest, err := r.store().App(app, r.Scale, r.Cfg.NumSM, r.Split)
	if err != nil {
		return RunKey{}, err
	}
	return RunKey{
		Mech: mech, GPU: r.Cfg, Scale: r.Scale,
		App: app, AppDigest: digest, Chain: chain,
	}, nil
}

// RunApp simulates the named application workload under the named registry
// mechanism (memoized), with chain selecting sim.Options.ChainPersistence.
func (r *Runner) RunApp(app, mech string, chain bool) (*sim.AppResult, error) {
	return r.RunAppCtx(context.Background(), app, mech, chain)
}

// RunAppCtx is RunApp with cancellation, under the same retry discipline as
// RunCtx: failed fills are not cached.
func (r *Runner) RunAppCtx(ctx context.Context, app, mech string, chain bool) (*sim.AppResult, error) {
	key, err := r.AppKey(app, mech, chain)
	if err != nil {
		return nil, err
	}
	a, _, err := r.store().App(app, r.Scale, r.Cfg.NumSM, r.Split)
	if err != nil {
		return nil, err
	}
	res, err := r.memoize(ctx, key.Hash(), func(res *runResult) {
		r.executeApp(ctx, res, app+"|"+mech, mech, chain, a)
	})
	if err != nil {
		return nil, err
	}
	return res.app, nil
}

// executeApp is execute's application counterpart: same budget discipline,
// same engine pool (apps and kernels recycle each other's machines), plus
// the chain-persistence policy.
func (r *Runner) executeApp(ctx context.Context, res *runResult, label, mech string, chain bool, a *trace.App) {
	budget := r.budget()
	if res.err = budget.Acquire(ctx); res.err != nil {
		return
	}
	defer budget.Release()
	f, err := Mechanism(mech)
	if err != nil {
		res.err = err
		return
	}
	out, err := r.engines().RunApp(a, sim.Options{
		Config:           r.Cfg,
		NewPrefetcher:    f,
		Context:          ctx,
		ChainPersistence: chain,
		PhaseProfile:     r.PhaseProfile,
	}, mech)
	if err != nil {
		res.err = fmt.Errorf("%s: %w", label, err)
		return
	}
	res.app = out
	res.st = &out.Stats
}
