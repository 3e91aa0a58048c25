package profiling

import "fmt"

// Phase names one section of the simulation engine's epoch loop. The
// engine's wall clock divides into four buckets (see DESIGN.md "Epoch
// loop"): the per-sub-cycle drain pump, the two tick loops (memory
// partitions, then SMs), and the merge plus end-of-epoch bookkeeping. The
// engine runs all four on one goroutine; the report names of the two tick
// phases keep their "parallel-" prefix only because perfbench's span
// reports are keyed by them.
type Phase uint8

// Engine phases, in cycle order.
const (
	// PhaseSerialDrain is the head of the epoch: network tick,
	// response bandwidth arbitration, fill delivery into SM inboxes,
	// request pull (with partition binning at push) and store drain.
	PhaseSerialDrain Phase = iota
	// PhaseSerialRoute is lapped by no engine phase and reads 0: each
	// partition pops its own due requests in its tick. It stays because
	// perfbench keys sim.route_share by it.
	PhaseSerialRoute
	// PhaseMemPartitions is the memory tick loop: each L2 sub-partition
	// performs its binned lookups, in-flight merges and DRAM timing, and
	// pushes its responses onto the response heap.
	PhaseMemPartitions
	// PhaseShards is the SM tick loop: each SM applies fills, runs its
	// prefetcher and issues from its warp schedulers.
	PhaseShards
	// PhaseMerge is the tail: queueing the epoch's store counts, CTA
	// refill, and termination bookkeeping.
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
// Phase timing says how much of the engine's wall clock is per-epoch
// bookkeeping (drain + merge) rather than unit ticks (partitions + shards):
// SerialShare is that fraction, with MergeShare splitting out the merge
// phase.
type Phases struct {
	ns [NumPhases]int64
	// barriers counts executed epochs, epochCycles the cycles they covered;
	// their ratio is the amortization the bounded-slack schedule achieved.
	barriers    int64
	epochCycles int64
}

// Add accrues ns nanoseconds to the given phase.
func (p *Phases) Add(ph Phase, ns int64) { p.ns[ph] += ns }

// AddEpoch records one executed epoch covering the given number of cycles.
func (p *Phases) AddEpoch(cycles int64) {
	p.barriers++
	p.epochCycles += cycles
}

// Barriers returns the number of executed epochs.
func (p *Phases) Barriers() int64 { return p.barriers }

// EpochCycles returns the number of cycles covered by executed epochs.
func (p *Phases) EpochCycles() int64 { return p.epochCycles }

// CyclesPerBarrier returns the mean epoch length — executed cycles per
// epoch; zero when nothing has been recorded.
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
// phases (drain + route + merge; the engine laps no route time), 0..1; zero
// when nothing has been recorded.
func (p *Phases) SerialShare() float64 {
	t := p.TotalNs()
	if t == 0 {
		return 0
	}
	return float64(p.ns[PhaseSerialDrain]+p.ns[PhaseSerialRoute]+p.ns[PhaseMerge]) / float64(t)
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
