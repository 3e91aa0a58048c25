package harness

import (
	"sync"

	"snake/internal/sim"
	"snake/internal/trace"
)

// EnginePool recycles sim.Engine instances across runs. It is one pool for
// every configuration and mechanism, so it holds about as many warm engines
// as there are runs in flight. A checked-out engine may have last run any
// (config, tag): sim.Engine reinitializes its arenas in place when the
// config matches its previous run and rebuilds them when it does not, and
// it resets its retained prefetcher instances only when the tag matches its
// previous run's, constructing them fresh otherwise.
//
// The tag follows sim.Engine.RunTagged's contract: it must uniquely identify
// the prefetcher factory's configuration (the mechanism registry name is the
// canonical choice), and the empty tag always constructs prefetchers fresh.
// Pooling is transparent to results: the sim package guarantees recycled
// engines produce bit-identical statistics whatever they ran before.
type EnginePool struct {
	engines sync.Pool
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool { return &EnginePool{} }

// sharedEngines is the process-wide pool the runner and the snaked service
// default to, so their steady-state traffic shares one set of warm arenas.
var sharedEngines = NewEnginePool()

// SharedEnginePool returns the process-wide engine pool.
func SharedEnginePool() *EnginePool { return sharedEngines }

// get checks out a pooled engine, or a new one when the pool is empty.
func (p *EnginePool) get() *sim.Engine {
	if en, ok := p.engines.Get().(*sim.Engine); ok {
		return en
	}
	return sim.NewEngine()
}

// Run simulates the kernel on a pooled engine and returns the engine to the
// pool afterwards. Engines are returned even after failed runs — the sim
// package's reinitialization path handles arbitrary dirty state.
func (p *EnginePool) Run(k *trace.Kernel, opt sim.Options, tag string) (*sim.Result, error) {
	en := p.get()
	res, err := en.RunTagged(k, opt, tag)
	p.engines.Put(en)
	return res, err
}
