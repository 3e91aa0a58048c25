package sim

import (
	"snake/internal/cache"
	"snake/internal/config"
	"snake/internal/dram"
	"snake/internal/icnt"
	"snake/internal/stats"
)

// partFill is one shipped-response completion, tagged with the sub-cycle its
// response left the partition (when the L2 install becomes visible).
type partFill struct {
	lineAddr uint64
	cycle    int64
}

// memPartition is one L2 sub-partition with its attached DRAM controller.
// Requests from different SMs to the same in-flight line merge at the
// partition so DRAM sees each line once.
//
// A partition is a schedulable work unit on the engine's cycle barrier, peer
// to the SM shards: requests are binned to the partition at injection time
// (the engine pushes them onto the partition's ingress ring, stamped with
// their arrival cycle and global arrival seq), the O(#partitions) route
// prefix-sum hands each partition a zero-copy due view plus a contiguous
// slot range, and tick — possibly concurrent with other partitions and with
// shard ticks — performs the L2 lookups, in-flight merges and DRAM timing,
// scattering responses into its reserved slots. Partitions are data-disjoint
// by the engine's line-address hash (partOf): no line ever reaches two
// partitions, so ticks share no state and need no locks.
type memPartition struct {
	id       int
	l2       *cache.Cache
	dramCtl  *dram.Controller
	latency  int64
	inflight cache.LineTable[int64] // line -> data-ready cycle

	// ms accumulates this partition's L2 and DRAM counters (an entry of the
	// engine's stats.MemParts arena; totals are partition-count and
	// merge-order invariant, see that package's property tests).
	ms *stats.Mem

	// Per-epoch work, set by the engine (sub-cycle tags non-decreasing) and
	// consumed by tickSpan. dueA/dueB are this epoch's due requests — a
	// zero-copy view of the partition's ingress ring (two windows because the
	// ring wraps at most once), assigned by planRoute together with slotBase,
	// the first index of this partition's contiguous range in routed. dueN
	// persists past tickSpan: mergeEpoch uses it to Drop the consumed ring
	// prefix.
	dueA, dueB []icnt.Stamped[reqMsg]
	slotBase   int
	dueN       int
	completes  []partFill // lines whose responses shipped this epoch
	// routed aliases the engine's per-epoch response slot array; tickSpan
	// writes each due request's response at slotBase + its due-view index.
	routed []resp

	// minRespLat is the smallest (readyAt - arrival) latency this partition
	// ever returned — the slack property test's observed floor.
	minRespLat int64
}

// newMemPartition builds partition id counting into ms (nil: a private
// block, for direct unit tests).
func newMemPartition(id int, cfg config.GPU, ms *stats.Mem) *memPartition {
	if ms == nil {
		ms = &stats.Mem{}
	}
	return &memPartition{
		id:         id,
		l2:         cache.New(cfg.L2),
		dramCtl:    dram.New(cfg.DRAM, cfg.DRAMBanks, cfg.DRAMRowBytes, cfg.DRAMClockxfer, ms),
		latency:    int64(cfg.L2.Latency),
		ms:         ms,
		minRespLat: int64(1)<<62 - 1,
	}
}

// tickSpan performs the partition's binned work for the epoch [from, to],
// walking each sub-cycle in order: that sub-cycle's arrivals first, then the
// completions of responses that shipped at it. Within one sub-cycle that
// order — all accesses, then all fills — is exactly the serial engine's
// arriveRequests→drainResponses order, so results are bit-identical.
// Deferring the completions from the serial response phase to here is
// invisible: nothing between the two points reads L2 state, and a
// sub-cycle's accesses cannot observe its completions in either schedule.
// Both the due view and completes are tagged with non-decreasing sub-cycles,
// so two index walks suffice. Each response is written at slotBase + its
// due-view index and inherits the request's global arrival seq, so any
// partition-major merge replays in exact serial order (see planRoute).
func (m *memPartition) tickSpan(from, to int64) {
	di, ci := 0, 0
	a, na, n := m.dueA, len(m.dueA), m.dueN
	for c := from; c <= to; c++ {
		for di < n {
			var e *icnt.Stamped[reqMsg]
			if di < na {
				e = &a[di]
			} else {
				e = &m.dueB[di-na]
			}
			if e.Cycle > c {
				break
			}
			readyAt := m.access(e.Msg.lineAddr, c)
			m.routed[m.slotBase+di] = resp{readyAt: readyAt, seq: e.Msg.seq, sm: e.Msg.sm, lineAddr: e.Msg.lineAddr, part: m.id, prefetch: e.Msg.prefetch}
			di++
		}
		for ci < len(m.completes) && m.completes[ci].cycle <= c {
			m.completeFill(m.completes[ci].lineAddr, c)
			ci++
		}
	}
	m.dueA, m.dueB = nil, nil
	m.completes = m.completes[:0]
}

// tick is the single-cycle span (kept for the white-box unit tests).
func (m *memPartition) tick(cycle int64) { m.tickSpan(cycle, cycle) }

// reset clears the partition for a new run on a recycled engine: the L2 is
// invalidated in place, the DRAM banks and counters are zeroed, the
// in-flight merge table is emptied (keeping its arrays), and the work bins
// and L2 counters are cleared.
func (m *memPartition) reset() {
	m.l2.InvalidateAll()
	m.dramCtl.Reset()
	m.inflight.Clear()
	m.dueA, m.dueB = nil, nil
	m.slotBase, m.dueN = 0, 0
	m.completes = m.completes[:0]
	m.routed = nil
	m.minRespLat = int64(1)<<62 - 1
	m.ms.L2Hits, m.ms.L2Misses, m.ms.L2Merges = 0, 0, 0
}

// access services a fill request arriving at the partition at cycle and
// returns the cycle at which the line's data is ready to be sent back.
//
// Every path returns readyAt ≥ cycle + L2 latency: hits and DRAM misses do so
// naturally, and in-flight merges are clamped to that floor (a merged
// response still traverses the L2 pipeline, so it can never complete faster
// than a hit). The floor is what bounds the slack window: a response computed
// inside an epoch is never sendable within it (config.SlackAudit).
func (m *memPartition) access(lineAddr uint64, cycle int64) int64 {
	ra := m.serve(lineAddr, cycle)
	if d := ra - cycle; d < m.minRespLat {
		m.minRespLat = d
	}
	return ra
}

func (m *memPartition) serve(lineAddr uint64, cycle int64) int64 {
	if ra, ok := m.inflight.Get(lineAddr); ok && ra > cycle {
		m.ms.L2Merges++
		if min := cycle + m.latency; ra < min {
			ra = min
		}
		return ra // merge with the in-flight fetch
	}
	if p := m.l2.Hit(lineAddr, cycle); p.Present {
		m.ms.L2Hits++
		return cycle + m.latency
	}
	m.ms.L2Misses++
	readyAt := m.dramCtl.Access(lineAddr, cycle+m.latency)
	m.inflight.Put(lineAddr, readyAt)
	return readyAt
}

// completeFill installs the line into the L2 once its DRAM fetch finished.
// Idempotent per in-flight fetch.
func (m *memPartition) completeFill(lineAddr uint64, cycle int64) {
	if !m.inflight.Del(lineAddr) {
		return
	}
	if p := m.l2.Probe(lineAddr); p.Present || p.Reserved {
		return
	}
	if _, ok := m.l2.Reserve(lineAddr, cache.ClassData, cycle, nil); ok {
		m.l2.Fill(lineAddr, cycle)
	}
}

// dramStats exposes the controller counters.
func (m *memPartition) dramStats() (reads, rowHits, rowMisses int64) {
	return m.dramCtl.Stats()
}
