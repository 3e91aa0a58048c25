package sim

import (
	"snake/internal/prefetch"
	"snake/internal/stats"
	"snake/internal/trace"
)

// Engine is a reusable simulation engine. Run behaves exactly like the
// package-level Run — same validation, same results, bit-identical
// statistics — but an Engine that has already completed a run with the same
// config.GPU reinitializes its arenas in place (warp contexts, caches, MSHR
// files, port rings, DRAM banks, statistics accumulators, scratch buffers)
// instead of reallocating them, which removes the per-run construction cost
// that dominates steady-state sweep traffic.
//
// The reuse contract mirrors the engine's other equivalence guarantees
// (slack window): a recycled engine's Result must be
// bit-identical to a freshly constructed engine's, for any sequence of
// (kernel, options, tag) runs. The golden and pooled-equivalence matrices
// enforce it.
//
// An Engine is not safe for concurrent use; pool instances (see
// harness.EnginePool) to share them across workers.
type Engine struct {
	e *engine
	// tag names the prefetcher configuration of the previous run ("" when
	// unknown); see RunTagged.
	tag string
}

// NewEngine returns an engine with no state; its first Run constructs
// everything, exactly as the package-level Run does.
func NewEngine() *Engine { return &Engine{} }

// Run simulates the kernel, recycling the engine's arenas when the config
// matches the previous run. Prefetchers are always constructed fresh from
// opt.NewPrefetcher; use RunTagged to recycle prefetcher instances too.
func (en *Engine) Run(k *trace.Kernel, opt Options) (*Result, error) {
	return en.RunTagged(k, opt, "")
}

// RunTagged is Run with a prefetcher-reuse tag. The tag is an opaque
// identifier for the configuration behind opt.NewPrefetcher (e.g. the
// mechanism registry name): when non-empty and equal to the previous run's
// tag, the engine calls Reset on its existing prefetcher instances instead
// of constructing new ones, so back-to-back runs of one mechanism allocate
// nothing for prefetch state either. Callers must guarantee that equal tags
// imply equivalent factories; an empty tag never reuses prefetchers.
func (en *Engine) RunTagged(k *trace.Kernel, opt Options, tag string) (*Result, error) {
	if err := validateRun(k, opt); err != nil {
		return nil, err
	}
	if en.e != nil && en.e.cfg == opt.Config {
		en.e.reinit(k, opt, tag != "" && tag == en.tag)
	} else {
		en.e = newEngine(k, opt)
	}
	en.tag = tag
	if err := en.e.run(); err != nil {
		return nil, err
	}
	return en.e.result(), nil
}

// reinit rewires a previously used engine for a new kernel run, reusing
// every allocation whose shape depends only on the config (which the caller
// has checked is unchanged). With reusePf the shards keep their prefetcher
// instances and reset them; otherwise new instances come from
// opt.NewPrefetcher and each L1's storage organization is re-derived.
func (e *engine) reinit(k *trace.Kernel, opt Options, reusePf bool) {
	e.setOptions(opt)
	e.cycle = 0
	e.net.reset()
	for _, p := range e.parts {
		p.reset()
	}
	for i := range e.partReqs {
		e.partReqs[i].Reset()
	}
	e.reqsLen = 0
	e.resps = e.resps[:0]
	e.stores = e.stores[:0]
	e.mem = stats.Mem{}
	e.ageCtr = 0
	e.inflight = 0
	e.inflightRel = e.inflightRel[:0]
	e.dispatchAt = e.dispatchAt[:0]
	e.utilSnap = e.utilSnap[:0]
	// Slack parameters depend on opt (SlackWindow may differ between runs on
	// the same config), and a recorded conflict must not leak across runs.
	e.initSlack()
	e.shStats.Reset()
	for i, sh := range e.shards {
		var pf prefetch.Prefetcher
		if !reusePf && opt.NewPrefetcher != nil {
			pf = opt.NewPrefetcher(i)
		}
		sh.sm.reset(pf, reusePf)
		sh.reset()
	}
	e.load(k)
}
