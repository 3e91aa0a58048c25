package sim

import (
	"snake/internal/prefetch"
	"snake/internal/stats"
	"snake/internal/trace"
)

// WithSlackWindow returns opt with the bounded-slack epoch length capped at
// w cycles: 1 is the per-cycle reference, and 0 (or anything above the
// config's horizon) the auto window every other run gets.
func WithSlackWindow(opt Options, w int) Options {
	opt.slackWindow = w
	return opt
}

// PerSM returns a copy of the last run's per-SM counter blocks, each with
// Cycles set to the run's cycle count. The memory-side counters live only in
// Result.Stats, so they read zero here.
func (en *Engine) PerSM() []stats.Sim {
	if en.e == nil {
		return nil
	}
	per := make([]stats.Sim, len(en.e.perSM))
	copy(per, en.e.perSM)
	for i := range per {
		per[i].Cycles = en.e.cycle
	}
	return per
}

// freshEngine returns an engine built for opt.Config and initialized for
// the kernel, exactly as a fresh Engine's first run prepares it.
func freshEngine(k *trace.Kernel, opt Options) *engine {
	e := newEngine(opt.Config)
	e.reinit(k, opt, false)
	return e
}

// NewDecoupledMTA builds MTA with its prefetched lines kept in the decoupled
// L1's prefetch space. Every registry mechanism on that storage is a Snake
// variant and observes the outcome of each prefetch; this pair puts a
// prefetcher that ignores them, so never backs off when the prefetch space
// runs out, through the equivalence tests.
func NewDecoupledMTA(int) prefetch.Prefetcher { return decoupledMTA{prefetch.NewMTA()} }

type decoupledMTA struct{ *prefetch.MTA }

// Storage implements prefetch.StorageHint.
func (decoupledMTA) Storage() (decoupled, isolated bool) { return true, false }
