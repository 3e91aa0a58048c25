package profiling

import "fmt"

// Phase names one section of the simulation engine's cycle pipeline. The
// engine's wall clock divides into exactly these five buckets (see DESIGN.md
// "Memory-side parallelism" and "Deterministic parallel routing"): the serial
// per-sub-cycle drain pump, the O(#partitions) route prefix-sum, the two
// halves of the parallel phase (memory partitions and SM shards), and the
// serial merge plus end-of-cycle bookkeeping.
type Phase uint8

// Engine phases, in cycle order.
const (
	// PhaseSerialDrain is the serial head of the cycle: network tick,
	// response bandwidth arbitration, fill delivery into shard inboxes,
	// request pull (with partition binning at push) and store drain.
	PhaseSerialDrain Phase = iota
	// PhaseSerialRoute is the route phase: the per-partition due counts and
	// the prefix-sum that assigns each partition its contiguous response
	// slot range — O(#partitions), not O(#requests), since the counting
	// moved to injection time.
	PhaseSerialRoute
	// PhaseMemPartitions is the memory half of the parallel phase: each L2
	// sub-partition performs its binned lookups, in-flight merges and DRAM
	// timing.
	PhaseMemPartitions
	// PhaseShards is the SM half of the parallel phase: each shard applies
	// fills, runs its prefetcher and issues from its warp schedulers.
	PhaseShards
	// PhaseMerge is the serial tail: response slot replay, the counting-
	// scatter store merge, CTA refill, and termination bookkeeping.
	PhaseMerge

	// NumPhases is the number of phases (for sizing arrays).
	NumPhases
)

// String returns the phase's report name.
func (p Phase) String() string {
	switch p {
	case PhaseSerialDrain:
		return "serial-drain"
	case PhaseSerialRoute:
		return "route"
	case PhaseMemPartitions:
		return "parallel-partition"
	case PhaseShards:
		return "parallel-shard"
	case PhaseMerge:
		return "merge"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Phases accumulates wall-clock nanoseconds per engine phase across a run
// (or any number of runs — callers own the aggregation window). It is not
// safe for concurrent use; give each engine its own accumulator.
//
// Phase timing answers the Amdahl question the parallel executor raises:
// how much of the engine's wall clock is still serial (drain + route + merge)
// versus parallel (partitions + shards)? SerialShare is that fraction
// directly — with RouteShare and MergeShare splitting out the two phases the
// parallel route/merge work targeted — and snakebench's regression guard
// watches them so the serial fraction cannot silently grow back.
type Phases struct {
	ns [NumPhases]int64
	// barriers counts executed epochs (each epoch crosses the cycle barrier
	// once), epochCycles the cycles they covered; their ratio is the
	// amortization the bounded-slack schedule achieved.
	barriers    int64
	epochCycles int64
}

// Add accrues ns nanoseconds to the given phase.
func (p *Phases) Add(ph Phase, ns int64) { p.ns[ph] += ns }

// AddEpoch records one executed epoch covering the given number of cycles —
// one barrier crossing.
func (p *Phases) AddEpoch(cycles int64) {
	p.barriers++
	p.epochCycles += cycles
}

// Barriers returns the number of barrier crossings (executed epochs).
func (p *Phases) Barriers() int64 { return p.barriers }

// EpochCycles returns the number of cycles covered by executed epochs.
func (p *Phases) EpochCycles() int64 { return p.epochCycles }

// CyclesPerBarrier returns the mean epoch length — executed cycles per
// barrier crossing; zero when nothing has been recorded.
func (p *Phases) CyclesPerBarrier() float64 {
	if p.barriers == 0 {
		return 0
	}
	return float64(p.epochCycles) / float64(p.barriers)
}

// Ns returns the nanoseconds accumulated for one phase.
func (p *Phases) Ns(ph Phase) int64 { return p.ns[ph] }

// TotalNs returns the nanoseconds accumulated across all phases.
func (p *Phases) TotalNs() int64 {
	var t int64
	for _, v := range p.ns {
		t += v
	}
	return t
}

// SerialShare returns the fraction of accumulated time spent in the serial
// phases (drain + route + merge), 0..1; zero when nothing has been recorded.
func (p *Phases) SerialShare() float64 {
	t := p.TotalNs()
	if t == 0 {
		return 0
	}
	return float64(p.ns[PhaseSerialDrain]+p.ns[PhaseSerialRoute]+p.ns[PhaseMerge]) / float64(t)
}

// RouteShare returns the fraction of accumulated time spent in the route
// prefix-sum phase, 0..1. The parallel-route CI gate watches this: the
// O(#partitions) plan must stay a sliver of the epoch.
func (p *Phases) RouteShare() float64 {
	t := p.TotalNs()
	if t == 0 {
		return 0
	}
	return float64(p.ns[PhaseSerialRoute]) / float64(t)
}

// MergeShare returns the fraction of accumulated time spent in the serial
// merge tail, 0..1.
func (p *Phases) MergeShare() float64 {
	t := p.TotalNs()
	if t == 0 {
		return 0
	}
	return float64(p.ns[PhaseMerge]) / float64(t)
}

// Reset zeroes the accumulator.
func (p *Phases) Reset() {
	p.ns = [NumPhases]int64{}
	p.barriers = 0
	p.epochCycles = 0
}

// Map returns the accumulated nanoseconds keyed by phase name, plus explicit
// "route_ns"/"merge_ns" aliases for the two formerly-serial phases the CI
// gates watch, and the barrier counters under "barriers" and "epoch_cycles"
// (the BENCH_sim.json phase_ns schema).
func (p *Phases) Map() map[string]int64 {
	out := make(map[string]int64, NumPhases+4)
	for ph := Phase(0); ph < NumPhases; ph++ {
		out[ph.String()] = p.ns[ph]
	}
	out["route_ns"] = p.ns[PhaseSerialRoute]
	out["merge_ns"] = p.ns[PhaseMerge]
	out["barriers"] = p.barriers
	out["epoch_cycles"] = p.epochCycles
	return out
}
