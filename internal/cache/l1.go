package cache

import (
	"snake/internal/config"
	"snake/internal/stats"
)

// L1Options sizes the L1 controller's MSHR file and demand miss queue. The
// prefetch-storage organization is not an option: Reconfigure sets it.
type L1Options struct {
	MSHREntries   int
	MergeCap      int
	MissQueueSize int
}

// prefetchQueueSize is the depth of the separate low-priority prefetch
// request queue: 32. Prefetch requests never occupy demand miss-queue slots,
// so aggressive prefetching cannot inflate demand reservation fails directly;
// they still compete for MSHRs and interconnect bandwidth.
const prefetchQueueSize = 32

// PrefetchOutcome describes what happened to a prefetch insertion attempt.
type PrefetchOutcome uint8

// Prefetch insertion outcomes.
const (
	PrefetchIssued    PrefetchOutcome = iota // request enqueued toward L2
	PrefetchDuplicate                        // line already present or in flight
	PrefetchNoRoom                           // MSHR/queue exhausted or no victim
	// PrefetchNoSpace means the request was issued but the unified cache had
	// no free space left, so 25% of it was bulk-freed by LRU (§3.2) — the
	// signal for Snake's space throttle.
	PrefetchNoSpace
)

// L1 is the per-SM L1 data cache controller: unified storage (optionally
// decoupled into prefetch/data classes), MSHR file, and miss queue.
//
// Prefetch usefulness is tracked per line address independently of the
// storage organization, so coverage/accuracy are comparable across Snake,
// Snake-DT (no decoupling) and Isolated-Snake:
//
//   - a prefetch fill with no merged demand marks the line "pending";
//   - a demand hit on a pending line counts as a timely useful prefetch;
//   - a demand merging into an in-flight prefetch counts as late useful;
//   - evicting a pending line counts as an early eviction;
//   - pending lines left at the end of the run count as unused.
type L1 struct {
	cache *Cache
	// decoupled enables Snake's flag-based split of the unified cache into a
	// prefetch space and an L1 data space (§3.2).
	decoupled bool
	// iso stores prefetched data in a buffer distinct from the unified
	// memory (the paper's Isolated-Snake, §5.7); non-nil only in that
	// organization, which excludes decoupled.
	iso *Cache
	// isoRetained keeps an isolated buffer alive across Reconfigure calls:
	// the behaviour gates on iso being nil, so a controller recycled into a
	// non-isolated organization parks the buffer here instead of freeing it.
	isoRetained *Cache
	mshr        *MSHR
	mq          *MissQueue // demand misses
	pfq         *MissQueue // prefetch requests (drained at lower priority)
	opt         L1Options
	st          *stats.Sim

	trained      bool
	confineUntil int64

	// pending holds prefetched lines that are resident but not yet demanded.
	pending LineTable[struct{}]
	// predicted holds the line number of every address the prefetcher ever
	// generated, for the paper's prediction-based coverage metric
	// (predictions persist: one prediction covers all later demands to that
	// line).
	predicted LineSet

	// Running counters for the 80%-transferred eviction heuristic.
	pfFills       int64
	pfTransferred int64
}

// NewL1 builds an L1 controller over the given data geometry (the unified
// space minus any shared-memory carve-out), in the plain organization:
// neither decoupled nor isolated until Reconfigure says otherwise.
func NewL1(geom config.CacheGeom, opt L1Options, st *stats.Sim) *L1 {
	return &L1{
		cache: New(geom),
		mshr:  NewMSHR(opt.MSHREntries, opt.MergeCap),
		mq:    NewMissQueue(opt.MissQueueSize),
		pfq:   NewMissQueue(prefetchQueueSize),
		opt:   opt,
		st:    st,
	}
}

// buildIso builds the isolated prefetch buffer for the given data geometry:
// half the unified data space — a dedicated structure the decoupled
// organization only approximates, hence Isolated-Snake's slightly higher hit
// rate (§5.7).
func buildIso(geom config.CacheGeom) *Cache {
	lines := max(1, geom.Lines()/2)
	ways := 8
	if lines < ways {
		ways = lines
	}
	sets := lines / ways
	// Round the line count down to a power-of-two set count.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return New(config.CacheGeom{
		SizeBytes: p * ways * geom.LineSize,
		Ways:      ways,
		LineSize:  geom.LineSize,
		Latency:   geom.Latency,
	})
}

// LineAddr truncates addr to its line base address.
func (l *L1) LineAddr(addr uint64) uint64 { return l.cache.LineAddr(addr) }

// LineSize returns the cache line size in bytes.
func (l *L1) LineSize() int { return l.cache.Geom().LineSize }

// SetTrained tells the controller the prefetcher finished training, lifting
// the 50% cap on the L1 data space (§3.2).
func (l *L1) SetTrained(trained bool) { l.trained = trained }

// Confine restricts the L1 data space to its designated half until the given
// cycle (applied while the prefetcher is throttled, §3.2).
func (l *L1) Confine(until int64) {
	if until > l.confineUntil {
		l.confineUntil = until
	}
}

// dataCapped reports whether demand fills are currently held to 50% of the
// unified space.
func (l *L1) dataCapped(cycle int64) bool {
	if !l.decoupled {
		return false
	}
	return !l.trained || cycle < l.confineUntil
}

// consumePending records a demand use of a pending prefetched line.
func (l *L1) consumePending(line uint64) bool {
	if !l.pending.Del(line) {
		return false
	}
	l.st.Pf.UsefulTimely++
	l.st.Pf.Transferred++
	l.pfTransferred++
	return true
}

// Access performs a demand load access for the given warp. The returned
// outcome has already been recorded in the stats.
func (l *L1) Access(warp int, addr uint64, cycle int64) stats.L1Outcome {
	line := l.cache.LineAddr(addr)
	out := l.access(warp, line, cycle)
	l.st.AddL1(out)
	// Prediction-based coverage (§4): count once per accepted access.
	if out != stats.L1ReservationFail && l.predicted.Has(line>>l.cache.setShift) {
		l.st.Pf.Covered++
		if out == stats.L1Hit || out == stats.L1HitPrefetch {
			l.st.Pf.CoveredTimely++
		}
	}
	return out
}

// Predict records that the prefetcher generated addr as a candidate, for
// coverage accounting, independently of whether a physical prefetch is
// issued (it may be deduplicated against resident data).
func (l *L1) Predict(addr uint64) {
	l.predicted.Put(addr >> l.cache.setShift)
}

func (l *L1) access(warp int, line uint64, cycle int64) stats.L1Outcome {
	// Isolated prefetch buffer hit? (Hit probes and touches in one lookup.)
	if l.iso != nil {
		if p := l.iso.Hit(line, cycle); p.Present {
			if l.consumePending(line) {
				return stats.L1HitPrefetch
			}
			return stats.L1Hit
		}
	}
	if p := l.cache.Hit(line, cycle); p.Present {
		// Hit already flipped prefetch-class lines to the data class.
		if l.consumePending(line) {
			return stats.L1HitPrefetch
		}
		return stats.L1Hit
	} else if p.Reserved {
		return l.mergeInflight(line, warp, cycle)
	}
	// In-flight to the isolated buffer?
	if l.iso != nil {
		if p := l.iso.Probe(line); p.Reserved {
			return l.mergeInflight(line, warp, cycle)
		}
	}
	// True miss: need miss-queue slot, MSHR entry, and a victim line.
	if l.mq.Full() {
		l.st.ResFailMissQueue++
		return stats.L1ReservationFail
	}
	if l.mshr.Free() == 0 {
		l.st.ResFailMSHR++
		return stats.L1ReservationFail
	}
	filter := l.demandVictimFilter(cycle)
	ev, ok := l.cache.Reserve(line, ClassData, cycle, filter)
	if !ok && filter != nil && !l.dataCapped(cycle) {
		// The set had no data-class victim; fall back to any LRU way rather
		// than failing (only the training/confinement cap is strict).
		ev, ok = l.cache.Reserve(line, ClassData, cycle, nil)
	}
	if !ok {
		l.st.ResFailVictim++
		return stats.L1ReservationFail
	}
	l.noteEviction(ev)
	if r := l.mshr.Allocate(line, warp, cycle); r != MSHRNew {
		// Cannot happen: freeness checked above and the line is not in flight.
		panic("cache: inconsistent MSHR state on demand miss")
	}
	l.mq.Push(MissRequest{LineAddr: line, Cycle: cycle})
	return stats.L1Miss
}

// mergeInflight merges a demand access into an in-flight fill.
func (l *L1) mergeInflight(line uint64, warp int, cycle int64) stats.L1Outcome {
	_, prefetchOnly := l.mshr.Lookup(line)
	switch l.mshr.Allocate(line, warp, cycle) {
	case MSHRMerged:
		if prefetchOnly {
			l.st.Pf.UsefulLate++
		}
		return stats.L1Reserved
	default:
		l.st.ResFailMSHR++
		return stats.L1ReservationFail
	}
}

// demandVictimFilter returns the victim filter applied to demand fills.
//
// With decoupling, demand fills never displace not-yet-used prefetched
// lines: that protection is what lets Snake prefetch far ahead (deep chains,
// future warps) without "early eviction by normal data from the L1 data
// cache" — the paper attributes a 50% accuracy loss to its absence (§5.1).
// While the prefetcher trains or the throttle confines the L1 (§3.2), the
// data side is additionally held to its designated half.
func (l *L1) demandVictimFilter(cycle int64) VictimFilter {
	if !l.decoupled {
		return nil
	}
	if l.dataCapped(cycle) {
		nData, _, _, free := l.cache.Occupancy()
		if free > 0 || nData < l.cache.Lines()/2 {
			return nil
		}
		return func(c Class, _ bool) bool { return c == ClassData }
	}
	return func(c Class, touched bool) bool { return c == ClassData || touched }
}

// PrefetchLine attempts to bring addr's cache line into the prefetch space.
func (l *L1) PrefetchLine(addr uint64, cycle int64) PrefetchOutcome {
	line := l.cache.LineAddr(addr)
	if p := l.cache.Probe(line); p.Present || p.Reserved {
		return PrefetchDuplicate
	}
	if l.iso != nil {
		if p := l.iso.Probe(line); p.Present || p.Reserved {
			return PrefetchDuplicate
		}
	}
	// Keep a quarter of the MSHR file in reserve for demand misses.
	if l.pfq.Full() || l.mshr.Free() <= l.opt.MSHREntries/4 {
		l.st.Pf.Dropped++
		return PrefetchNoRoom
	}
	target := l.cache
	class := ClassData
	if l.iso != nil {
		target = l.iso
		class = ClassPrefetch
	} else if l.decoupled {
		class = ClassPrefetch
	}
	// Decoupled insert policy (§3.2): the prefetch side expands into free
	// ways, then recycles its own stalest lines, and never displaces L1
	// data directly. When neither works the unified space is out of room
	// for prefetching: 25% of it is bulk-freed by LRU (L1 data victims when
	// >80% of prefetched lines were transferred — prefetching has been
	// accurate — older prefetched lines otherwise) and the caller sees
	// PrefetchNoSpace, the trigger for Snake's space throttle.
	outOfSpace := false
	var ev EvictInfo
	var ok bool
	if target == l.iso && l.iso != nil {
		// Isolated buffer: expand into free ways; when full, recycle the
		// stalest prefetched line and report space pressure so the throttle
		// can pace the prefetcher to the buffer's drain rate.
		ev, ok = l.iso.Reserve(line, class, cycle, neverEvict)
		if !ok {
			outOfSpace = true
			ev, ok = l.iso.Reserve(line, class, cycle, nil)
		}
	} else if target == l.cache && l.decoupled {
		ev, ok = l.cache.Reserve(line, class, cycle, neverEvict)
		if !ok {
			// No free way in the set: recycle the set's stalest prefetched
			// line rather than displacing L1 data.
			ev, ok = l.cache.Reserve(line, class, cycle, prefetchClassOnly)
		}
		if !ok {
			// The unified space is out of room for prefetching: §3.2's
			// no-free-space policy, reported as the space-throttle trigger.
			l.FreeQuarter()
			outOfSpace = true
			ev, ok = l.cache.Reserve(line, class, cycle, nil)
		}
	} else {
		ev, ok = target.Reserve(line, class, cycle, nil)
	}
	if !ok {
		l.st.Pf.Dropped++
		if outOfSpace {
			return PrefetchNoSpace
		}
		return PrefetchNoRoom
	}
	l.noteEviction(ev)
	if r := l.mshr.Allocate(line, PrefetchWarp, cycle); r != MSHRNew {
		panic("cache: inconsistent MSHR state on prefetch miss")
	}
	l.pfq.Push(MissRequest{LineAddr: line, Prefetch: true, Cycle: cycle})
	l.st.Pf.Issued++
	if outOfSpace {
		return PrefetchNoSpace
	}
	return PrefetchIssued
}

// MagicFill installs addr's line instantly as a pending prefetched line with
// zero latency and no MSHR/miss-queue/bandwidth cost — the Ideal prefetcher's
// "optimal characteristics". It returns false if the line is already present
// or in flight, or no victim could be found.
func (l *L1) MagicFill(addr uint64, cycle int64) bool {
	line := l.cache.LineAddr(addr)
	if p := l.cache.Probe(line); p.Present || p.Reserved {
		return false
	}
	target := l.cache
	class := ClassData
	if l.iso != nil {
		if p := l.iso.Probe(line); p.Present || p.Reserved {
			return false
		}
		target = l.iso
		class = ClassPrefetch
	} else if l.decoupled {
		class = ClassPrefetch
	}
	ev, ok := target.Reserve(line, class, cycle, nil)
	if !ok {
		return false
	}
	l.noteEviction(ev)
	target.Fill(line, cycle)
	l.st.Pf.Issued++
	l.pfFills++
	l.pending.Put(line, struct{}{})
	return true
}

// FreeQuarter releases 25% of the unified space by LRU (§3.2): older L1
// data entries when more than 80% of prefetched lines were transferred
// (prefetching has been accurate), otherwise older prefetched entries. If
// the preferred class cannot supply enough victims, the remainder comes from
// the other class.
func (l *L1) FreeQuarter() {
	n := l.cache.Lines() / 4
	preferred := ClassPrefetch
	if l.pfFills > 0 && float64(l.pfTransferred)/float64(l.pfFills) > 0.8 {
		preferred = ClassData
	}
	evs := l.cache.EvictLRUOfClass(preferred, n)
	for _, ev := range evs {
		l.noteEviction(ev)
	}
	if short := n - len(evs); short > 0 {
		other := ClassData
		if preferred == ClassData {
			other = ClassPrefetch
		}
		// evs is the cache's scratch: the second call reuses it.
		for _, ev := range l.cache.EvictLRUOfClass(other, short) {
			l.noteEviction(ev)
		}
	}
}

// neverEvict admits only invalid (free) ways.
func neverEvict(Class, bool) bool { return false }

// prefetchClassOnly admits prefetch-class victims.
func prefetchClassOnly(c Class, _ bool) bool { return c == ClassPrefetch }

func (l *L1) noteEviction(ev EvictInfo) {
	if ev.Valid && l.pending.Del(ev.LineAddr) {
		l.st.Pf.EarlyEvicted++
	}
}

// PopMiss removes the oldest outgoing request from the shared miss queue.
func (l *L1) PopMiss() (MissRequest, bool) { return l.mq.Pop() }

// PeekMiss returns the next outgoing request without removing it.
func (l *L1) PeekMiss() (MissRequest, bool) { return l.mq.Peek() }

// PrefetchDrainPerCycle is how many staged prefetch requests trickle from
// the low-priority prefetch queue into the shared miss queue each cycle.
const PrefetchDrainPerCycle = 2

// DrainPrefetch moves up to PrefetchDrainPerCycle staged prefetch requests
// into the shared miss queue per cycle, and only while the queue has free
// slots. Prefetch requests therefore occupy the same miss-queue slots as
// demand misses — aggressive prefetching congests the queue and induces the
// demand reservation fails that Snake's throttle exists to prevent (§2, §3.3).
func (l *L1) DrainPrefetch(cycle int64) {
	for k := 0; k < PrefetchDrainPerCycle; k++ {
		if l.mq.Full() {
			return
		}
		r, ok := l.pfq.Pop()
		if !ok {
			return
		}
		// Re-stamp to the cycle before the drain: the engine's injection
		// readiness is measured from when the request became drainable, and a
		// prefetch drainable at cycle c was eligible for injection at c
		// itself under per-cycle engine scheduling (drain and inject shared
		// one serial pass), one cycle ahead of a demand miss issued at c.
		// Under slack ticking (maturity = stamp + horizon) the early stamp
		// still matures past its own epoch: drains at an epoch's first
		// sub-cycle run in the serial phase itself (engine.serialPhase's
		// hoisted drain), and every later drain's stamp is ≥ the epoch
		// start, so even full-horizon epochs are safe.
		r.Cycle = cycle - 1
		l.mq.Push(r)
	}
}

// SetMissQueueInjectionModel sets the miss queue's virtual injection
// schedule: a request occupies a slot until the cycle the modeled hardware
// would have injected it (turnaround residency, budget per cycle, queue
// order), no matter when the engine physically pulls it (which can be a
// full slack horizon later). The engine sets it once per run.
func (l *L1) SetMissQueueInjectionModel(turn int64, budget int) {
	l.mq.SetInjectionModel(turn, budget)
}

// SetMissQueueClock advances the miss queue's occupancy clock and sets the
// phantom credit: requests the engine already pulled whose modeled residency
// has not yet elapsed at this tick's cycle. Keeps Full checks — and
// therefore reservation-fail stats — a pure function of stamps and the
// cycle, identical across epoch shapes.
func (l *L1) SetMissQueueClock(now int64, credit int) { l.mq.SetClock(now, credit) }

// MissQueueLen returns the combined outgoing queue occupancy.
func (l *L1) MissQueueLen() int { return l.mq.Len() + l.pfq.Len() }

// DemandQueueLen returns the shared outgoing miss-queue occupancy (demand
// misses plus already-drained prefetches).
func (l *L1) DemandQueueLen() int { return l.mq.Len() }

// Fill completes the fill for lineAddr and returns the warps waiting on it.
func (l *L1) Fill(lineAddr uint64, cycle int64) (waiters []int) {
	waiters, prefetchOnly, origPrefetch, ok := l.mshr.Complete(lineAddr)
	if !ok {
		return nil
	}
	target := l.cache
	if l.iso != nil {
		if p := l.iso.Probe(lineAddr); p.Reserved {
			target = l.iso
		}
	}
	if !target.Fill(lineAddr, cycle) {
		// Reservation was displaced (reserved lines are never victims, so
		// this indicates a squashed reservation); tolerate by ignoring.
		return waiters
	}
	if prefetchOnly {
		l.pfFills++
		l.pending.Put(lineAddr, struct{}{})
	}
	// Merged demands consume the line on arrival. A line whose prefetch was
	// consumed while in flight counts as transferred for the 80% heuristic:
	// the prediction was accurate, just late.
	if len(waiters) > 0 {
		target.Touch(lineAddr, cycle)
		if origPrefetch {
			l.pfFills++
			l.pfTransferred++
		}
	}
	return waiters
}

// InFlight returns the number of outstanding misses.
func (l *L1) InFlight() int { return l.mshr.InFlight() }

// PendingPrefetches returns the number of resident, not-yet-used prefetched
// lines.
func (l *L1) PendingPrefetches() int { return l.pending.Len() }

// Occupancy exposes the unified-space occupancy (data, prefetch, reserved,
// free line counts).
func (l *L1) Occupancy() (data, prefetch, reserved, free int) {
	return l.cache.Occupancy()
}

// FreeFraction returns the fraction of unified lines currently free.
func (l *L1) FreeFraction() float64 {
	_, _, _, free := l.cache.Occupancy()
	return float64(free) / float64(l.cache.Lines())
}

// FinishRun counts still-resident unused prefetched lines.
func (l *L1) FinishRun() {
	l.st.Pf.Unused += int64(l.pending.Len())
}

// Reset clears all cache and MSHR state (between kernels and when an engine
// is recycled for a new run). Everything is cleared in place — the cache
// arrays, MSHR entries, queue arrays and line tables are all kept — so
// a recycled controller allocates nothing and behaves bit-identically to a
// freshly constructed one.
func (l *L1) Reset() {
	l.cache.InvalidateAll()
	if l.iso != nil {
		l.iso.InvalidateAll()
	}
	l.mshr.Reset()
	l.mq.Reset()
	l.pfq.Reset()
	l.trained = false
	l.confineUntil = 0
	l.pfFills = 0
	l.pfTransferred = 0
	l.pending.Clear()
	l.predicted.Clear()
}

// Reconfigure sets the controller's prefetch-storage organization — the
// only place it is set — and clears all state. The isolated buffer is built
// lazily on first use and retained across organizations, so flipping between
// mechanisms steady-state allocates nothing.
func (l *L1) Reconfigure(decoupled, isolated bool) {
	l.decoupled = decoupled
	if isolated {
		if l.isoRetained == nil {
			l.isoRetained = buildIso(l.cache.Geom())
		}
		l.iso = l.isoRetained
	} else {
		l.iso = nil
	}
	l.Reset()
}
