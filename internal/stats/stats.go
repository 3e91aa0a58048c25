// Package stats collects the counters the Snake paper reports: IPC, stall
// breakdowns, L1 access outcomes (hit / miss / reserved / reservation fail),
// interconnect bandwidth utilization, and the prefetch coverage / accuracy
// bookkeeping used for Figures 6, 16 and 17.
//
// The engine keeps one Sim per SM, which that SM counts into, and a Mem
// block for the memory side; a run's Sim is the per-SM blocks merged in SM
// order (Sim.Merge) plus the Mem counters and the interconnect totals.
package stats

import "fmt"

// L1Outcome classifies one L1 data-cache access, mirroring the paper's
// footnote 1: "hit, miss, reserved, and reservation fail".
type L1Outcome uint8

// L1 access outcomes.
const (
	L1Hit             L1Outcome = iota // data present (in L1 data space)
	L1HitPrefetch                      // data present in the decoupled prefetch space
	L1Reserved                         // line already reserved by an in-flight miss (merged)
	L1Miss                             // miss; a new fill request was issued
	L1ReservationFail                  // rejected: MSHR/miss-queue/line-reservation exhausted
)

// String returns the outcome name.
func (o L1Outcome) String() string {
	switch o {
	case L1Hit:
		return "hit"
	case L1HitPrefetch:
		return "hit-prefetch"
	case L1Reserved:
		return "reserved"
	case L1Miss:
		return "miss"
	case L1ReservationFail:
		return "reservation-fail"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Sim aggregates all counters for one simulation run.
type Sim struct {
	Cycles int64
	Insts  int64 // retired warp instructions
	Loads  int64 // retired demand loads
	Stores int64

	// L1 access outcome counts (demand accesses only).
	L1 [5]int64

	// Reservation-fail cause breakdown (diagnostic).
	ResFailMissQueue int64 // outgoing miss queue full
	ResFailMSHR      int64 // MSHR entries or merge slots exhausted
	ResFailVictim    int64 // no evictable way in the set

	// Stall classification: cycles in which an SM issued nothing.
	StallMemory int64 // all resident warps waiting on memory
	StallOther  int64 // e.g. waiting on compute latency, barriers, empty pipe

	// Interconnect traffic.
	IcntBytes     int64 // bytes transferred L1<->L2
	IcntPeakBytes int64 // theoretical capacity over the run

	// Prefetch bookkeeping.
	Pf Prefetch

	// Energy is filled post-run by the energy model.
	EnergyJ float64

	// L2 partition outcomes (memory-side totals; zero in per-SM blocks, the
	// partitions are shared hardware not attributable to one SM).
	L2Hits   int64
	L2Misses int64
	// L2Merges counts same-line fill requests that coalesced onto a fetch
	// already in flight at the partition, so DRAM saw the line once.
	L2Merges int64

	// DRAM traffic.
	DRAMReads     int64
	DRAMRowHits   int64
	DRAMRowMisses int64
}

// Prefetch holds prefetcher effectiveness counters.
//
// Definitions follow §4 of the paper:
//   - coverage  = correctly predicted addresses / total demand addresses
//   - accuracy  = correctly predicted addresses that arrive timely enough to
//     be used by the demand / total demand addresses
type Prefetch struct {
	Issued         int64 // prefetch requests sent to the memory system
	Dropped        int64 // suppressed (throttled, duplicate, no space)
	UsefulTimely   int64 // demand hit on completed prefetched line
	UsefulLate     int64 // demand arrived while the prefetch was still in flight
	EarlyEvicted   int64 // prefetched line evicted before any demand use
	Unused         int64 // still resident and unused at end of run
	Transferred    int64 // prefetch lines promoted to L1 data space (flag flip)
	ThrottleCycles int64 // cycles the prefetcher spent halted

	// Prediction-based coverage accounting (§4's definitions): a demand
	// address counts as covered when the prefetcher generated ("correctly
	// predicted") it beforehand, whether or not the physical prefetch was
	// deduplicated against data already in the cache; it counts as timely
	// when the data was present at the demand access.
	Covered       int64
	CoveredTimely int64
}

// Useful returns the number of prefetches that matched a later demand.
func (p Prefetch) Useful() int64 { return p.UsefulTimely + p.UsefulLate }

// AddL1 records one demand L1 access outcome.
func (s *Sim) AddL1(o L1Outcome) { s.L1[o]++ }

// L1Accesses returns the total number of demand L1 accesses (all outcomes).
func (s *Sim) L1Accesses() int64 {
	var n int64
	for _, v := range s.L1 {
		n += v
	}
	return n
}

// L1HitRate returns hits (including prefetch-space hits) over accepted
// accesses (reservation fails excluded from the denominator, since a failed
// access is retried and will be counted again).
func (s *Sim) L1HitRate() float64 {
	acc := s.L1[L1Hit] + s.L1[L1HitPrefetch] + s.L1[L1Reserved] + s.L1[L1Miss]
	if acc == 0 {
		return 0
	}
	return float64(s.L1[L1Hit]+s.L1[L1HitPrefetch]) / float64(acc)
}

// ReservationFailRate returns reservation fails normalized to total L1
// accesses, the Figure 3 metric.
func (s *Sim) ReservationFailRate() float64 {
	tot := s.L1Accesses()
	if tot == 0 {
		return 0
	}
	return float64(s.L1[L1ReservationFail]) / float64(tot)
}

// IPC returns retired instructions per cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// BandwidthUtilization returns transferred bytes over theoretical capacity,
// the Figure 4 metric.
func (s *Sim) BandwidthUtilization() float64 {
	if s.IcntPeakBytes == 0 {
		return 0
	}
	u := float64(s.IcntBytes) / float64(s.IcntPeakBytes)
	if u > 1 {
		u = 1
	}
	return u
}

// MemStallFraction returns memory stalls over all stalls, the Figure 5 metric.
func (s *Sim) MemStallFraction() float64 {
	tot := s.StallMemory + s.StallOther
	if tot == 0 {
		return 0
	}
	return float64(s.StallMemory) / float64(tot)
}

// Coverage returns prefetch coverage per the paper's definition: correctly
// predicted demand addresses over total demand addresses.
func (s *Sim) Coverage() float64 {
	if s.Loads == 0 {
		return 0
	}
	c := float64(s.Pf.Covered) / float64(s.Loads)
	if c > 1 {
		c = 1
	}
	return c
}

// Accuracy returns timely coverage per the paper's definition: correctly
// predicted addresses whose data arrived in time to be used by the demand,
// over total demand addresses.
func (s *Sim) Accuracy() float64 {
	if s.Loads == 0 {
		return 0
	}
	a := float64(s.Pf.CoveredTimely) / float64(s.Loads)
	if a > 1 {
		a = 1
	}
	return a
}

// PrefetchPrecision returns useful prefetches over issued prefetches (the
// classic accuracy definition, reported as auxiliary data).
func (s *Sim) PrefetchPrecision() float64 {
	if s.Pf.Issued == 0 {
		return 0
	}
	return float64(s.Pf.Useful()) / float64(s.Pf.Issued)
}

// Merge adds other into s (used to aggregate per-SM stats). It is
// insensitive to how events were partitioned across blocks: every counter
// is a sum and Cycles is a max, so merging any partition of an event stream
// yields the same totals as accumulating the stream serially.
// TestShardsMergePartitionInvariant pins this property.
func (s *Sim) Merge(other *Sim) {
	if other.Cycles > s.Cycles {
		s.Cycles = other.Cycles
	}
	s.Insts += other.Insts
	s.Loads += other.Loads
	s.Stores += other.Stores
	for i := range s.L1 {
		s.L1[i] += other.L1[i]
	}
	s.ResFailMissQueue += other.ResFailMissQueue
	s.ResFailMSHR += other.ResFailMSHR
	s.ResFailVictim += other.ResFailVictim
	s.StallMemory += other.StallMemory
	s.StallOther += other.StallOther
	s.IcntBytes += other.IcntBytes
	s.IcntPeakBytes += other.IcntPeakBytes
	s.L2Hits += other.L2Hits
	s.L2Misses += other.L2Misses
	s.L2Merges += other.L2Merges
	s.DRAMReads += other.DRAMReads
	s.DRAMRowHits += other.DRAMRowHits
	s.DRAMRowMisses += other.DRAMRowMisses
	s.Pf.Issued += other.Pf.Issued
	s.Pf.Dropped += other.Pf.Dropped
	s.Pf.UsefulTimely += other.Pf.UsefulTimely
	s.Pf.UsefulLate += other.Pf.UsefulLate
	s.Pf.EarlyEvicted += other.Pf.EarlyEvicted
	s.Pf.Unused += other.Pf.Unused
	s.Pf.Transferred += other.Pf.Transferred
	s.Pf.ThrottleCycles += other.Pf.ThrottleCycles
	s.Pf.Covered += other.Pf.Covered
	s.Pf.CoveredTimely += other.Pf.CoveredTimely
}

// String renders a one-line summary.
func (s *Sim) String() string {
	return fmt.Sprintf("cycles=%d insts=%d ipc=%.3f l1hit=%.1f%% resfail=%.1f%% cov=%.1f%% acc=%.1f%%",
		s.Cycles, s.Insts, s.IPC(), 100*s.L1HitRate(), 100*s.ReservationFailRate(),
		100*s.Coverage(), 100*s.Accuracy())
}

// Mem is the memory side's counter block: every L2 sub-partition and DRAM
// controller of an engine adds its outcomes to the engine's one Mem, and
// the run's Sim takes the totals from it.
type Mem struct {
	// L2 access outcomes at the partitions.
	L2Hits   int64 // request hit in the L2 data array
	L2Misses int64 // request went to DRAM
	L2Merges int64 // same-line request coalesced onto an in-flight fetch

	// DRAM controller traffic.
	DRAMReads     int64
	DRAMRowHits   int64
	DRAMRowMisses int64
}
