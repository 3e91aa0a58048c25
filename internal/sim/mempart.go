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
// A partition is ticked once per epoch, like the SMs: requests are
// binned to the partition at injection time (the engine pushes them onto
// the partition's ingress ring, stamped with their arrival cycle and global
// arrival seq), and tickSpan pops each at its arrival sub-cycle and
// performs the L2 lookups, in-flight merges and DRAM timing, pushing each
// response onto the engine's response heap.
// Partitions are data-disjoint by the engine's line-address hash (partOf):
// no line ever reaches two partitions, so the order partitions tick in
// changes nothing.
type memPartition struct {
	id       int
	l2       *cache.Cache
	dramCtl  *dram.Controller
	latency  int64
	inflight cache.LineTable[int64] // line -> data-ready cycle

	// ms is the counter block the L2 and DRAM outcomes are added to: the
	// engine's one stats.Mem, shared by every partition.
	ms *stats.Mem

	// reqs is the SM→L2 ingress port: fill requests in flight across the
	// request network, stamped with their arrival cycle at the partition
	// crossbar (engine.pushReq). Its order is global injection order
	// restricted to this partition. completes holds the lines whose
	// responses shipped this epoch. The engine fills both in its drain
	// phase, with non-decreasing sub-cycle tags; tickSpan consumes them.
	reqs      icnt.Ingress[reqMsg]
	completes []partFill

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
		id:      id,
		l2:      cache.New(cfg.L2),
		dramCtl: dram.New(cfg.DRAM, cfg.DRAMBanks, cfg.DRAMRowBytes, cfg.DRAMClockxfer, ms),
		latency: int64(cfg.L2.Latency),
		ms:      ms,
	}
}

// tickSpan performs the partition's binned work for the epoch [from, to],
// walking each sub-cycle in order: the requests arriving at it first, then
// the completions of responses that shipped at it. Within one sub-cycle that
// order — all accesses, then all fills — is exactly the serial engine's
// arriveRequests→drainResponses order, so results are bit-identical.
// Deferring the completions from the serial response phase to here is
// invisible: nothing between the two points reads L2 state, and a
// sub-cycle's accesses cannot observe its completions in either schedule.
//
// Each response is pushed onto resps as soon as it is computed, carrying
// its request's global arrival seq: the heap pops by (readyAt, seq), so the
// partition-major push order is invisible (see respHeap). Returns how many
// requests it popped, and the first response ready within the span, or -1:
// provably none is, since every response is ready no earlier than arrival +
// L2.Latency ≥ arrival + horizon > to, and the engine turns any such cycle
// into a slack conflict.
func (m *memPartition) tickSpan(from, to int64, resps *respHeap) (early int64, popped int) {
	early = -1
	ci := 0
	for c := from; c <= to; c++ {
		for {
			req, ok := m.reqs.PopDue(c)
			if !ok {
				break
			}
			readyAt := m.access(req.lineAddr, c)
			if readyAt <= to && early < 0 {
				early = readyAt
			}
			resps.push(resp{readyAt: readyAt, seq: req.seq, sm: req.sm, lineAddr: req.lineAddr, part: m.id, prefetch: req.prefetch})
			popped++
		}
		for ci < len(m.completes) && m.completes[ci].cycle <= c {
			m.completeFill(m.completes[ci].lineAddr, c)
			ci++
		}
	}
	m.completes = m.completes[:0]
	return early, popped
}

// reset clears the partition for a new run on a recycled engine: the L2 is
// invalidated in place, the DRAM banks are closed, the in-flight merge table
// is emptied (keeping its arrays), and the ingress ring and work bins are
// cleared. The counters belong to the engine, which zeroes them itself.
func (m *memPartition) reset() {
	m.l2.InvalidateAll()
	m.dramCtl.Reset()
	m.inflight.Clear()
	m.reqs.Reset()
	m.completes = m.completes[:0]
	m.minRespLat = latencyUnobserved
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
