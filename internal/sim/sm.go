package sim

import (
	"snake/internal/cache"
	"snake/internal/config"
	"snake/internal/icnt"
	"snake/internal/prefetch"
	"snake/internal/sched"
	"snake/internal/stats"
	"snake/internal/trace"
)

// neverReady is the readyAt sentinel for slots that cannot issue regardless
// of cycle (free, done, waiting on memory or a barrier).
const neverReady = int64(1)<<62 - 1

// warpState is the lifecycle state of a warp slot.
type warpState uint8

const (
	wsFree    warpState = iota // slot unoccupied
	wsReady                    // can issue (subject to busyUntil)
	wsWaitMem                  // blocked on an outstanding load
	wsBarrier                  // waiting at a CTA barrier
	wsDone                     // finished; slot frees when the CTA completes
)

// warpCtx is the per-warp-slot execution context.
type warpCtx struct {
	state     warpState
	ctaIdx    int // index into the kernel's CTA slice
	prog      *trace.WarpProgram
	pc        int
	busyUntil int64
	age       int64
	loadSeq   int // retired loads so far
	// outstanding counts in-flight loads; the warp issues ahead until the
	// MLP window fills, then blocks (in-order core with limited memory-level
	// parallelism).
	outstanding int

	// nextExit memoizes the index of the warp's next OpExit at or past pc
	// for the adaptive epoch cutter's activity lookahead (engine.actBound).
	// -1: not scanned yet; len(Insts): none remain. The lazy rescan
	// (opDist) only ever moves forward, so the total scan cost is one
	// program pass per warp per run.
	nextExit int32

	// Oracle load streams (populated only when the prefetcher wants them).
	futPCs   []uint64
	futAddrs []uint64
}

// opDist returns the instruction distance from pc to the warp's next op of
// the given kind, memoized through *memo (-1: the program has none left).
// Valid only for live warps (prog set). The memo invariant — no matching op
// in [scan origin, memo) — holds because pc only advances, so a stale memo
// below pc can be rescanned from pc itself.
func (w *warpCtx) opDist(op trace.Op, memo *int32) int {
	i := int(*memo)
	if i < w.pc {
		insts := w.prog.Insts
		i = w.pc
		for i < len(insts) && insts[i].Op != op {
			i++
		}
		*memo = int32(i)
	}
	if i >= len(w.prog.Insts) {
		return -1
	}
	return i - w.pc
}

// sm models one streaming multiprocessor: warp slots, scheduler slices, the
// L1 controller and the attached prefetcher, together with the typed ports
// that are its only connection to the memory side (ports.go).
//
// The engine's one goroutine ticks every SM in smID order:
//
//   - During the tick phase of an epoch, tickSpan touches the SM's own state,
//     the inbox the drain phase filled, and the engine's per-epoch record
//     (epochOut) it adds its stores, CTA finishes and last-cycle retirement
//     to. It never reads another SM or memory-side state.
//   - In the drain and merge phases the engine owns the whole SM: it
//     delivers ingress messages, pulls from the request port, and may
//     dispatch CTAs.
type sm struct {
	id     int
	cfg    config.GPU
	l1     *cache.L1
	pf     prefetch.Prefetcher
	oracle bool // pf is the Ideal oracle (prefetch.WantsOracle)
	scheds []sched.Scheduler
	warps  []warpCtx
	st     *stats.Sim

	// Per-scheduler warp membership (slot indices and ages by position in
	// the slice), cached across cycles and rebuilt only when membership
	// changes (dispatch, warp completion) — see refreshSched.
	ageBuf     [][]int64
	slotBuf    [][]int
	schedDirty bool
	// Issue readiness, maintained incrementally (see ready.go): ready[si] is
	// slice si's ready set in position space, posOf maps a slot to its
	// position in its slice (-1: not a member), and wheel holds the slots
	// whose readyAt lies in the future.
	ready     []sched.Set
	posOf     []int32
	wheel     []uint64 // wheelSpan(cfg) buckets of wheelW words: slot bitsets
	wheelW    int
	wheelMask int64    // wheelSpan(cfg) - 1: a cycle's bucket is cycle & wheelMask
	lineBuf   []uint64 // coalescer scratch

	resident int // live (non-free) warp slots
	// Warp-state occupancy counts, maintained incrementally at every state
	// transition so stall classification and issue-cycle detection are O(1)
	// instead of scanning every warp slot.
	nReady   int // wsReady (issuable once busyUntil passes)
	nWaitMem int // wsWaitMem
	nBarrier int // wsBarrier
	// readyAt shadows each slot's issue-readiness cycle: busyUntil while the
	// warp is wsReady, neverReady otherwise. Every write goes through
	// setReadyAt, which keeps the ready sets and the wheel in step with it;
	// actBound reads it directly.
	readyAt  []int64
	env      prefetch.Env
	kernel   *trace.Kernel // set by the engine before the run
	observer prefetch.OutcomeObserver

	// nowCycle is the sub-cycle tickSpan is currently executing; smEnv reads
	// it to index the engine's per-sub-cycle utilization snapshots (set
	// before any prefetcher hook can run).
	nowCycle int64

	// fills is the memory→SM ingress port: completed responses in flight,
	// stamped with their delivery cycle. The serial phase pushes (send order
	// is non-decreasing in delivery cycle because the response network
	// serializes bandwidth) and moves due messages to inbox; tickSpan
	// consumes each at its stamped sub-cycle.
	fills icnt.Ingress[fillMsg]
	// inbox holds the fills due this epoch, each stamped with its delivery
	// sub-cycle, in stamp order, for tickSpan.
	inbox []icnt.Stamped[fillMsg]

	// mqExpiry records, per request the engine's serial phase pulled from
	// this SM's miss queue this epoch, the sub-cycle at which the entry's
	// modeled queue residency elapses (stamp + turnaround), in ascending
	// order — the schedule behind the phantom-credit occupancy tickSpan
	// presents to the L1 (see tickSpan).
	mqExpiry []int64

	// predrained records that the engine's serial phase already ran this
	// epoch's first-sub-cycle prefetch drain (after that sub-cycle's
	// injection pull, matching the per-cycle drain-after-pull order), so
	// tickSpan must skip the drain at its first sub-cycle. Hoisting that
	// one drain is what lets epochs span the full horizon: its entries are
	// stamped one cycle early (cache.L1.DrainPrefetch) and would otherwise
	// mature inside a full-width epoch.
	predrained bool
}

// outcomeOf maps the cache-level prefetch outcome to the prefetcher-visible
// one.
func outcomeOf(oc cache.PrefetchOutcome) prefetch.Outcome {
	switch oc {
	case cache.PrefetchIssued:
		return prefetch.OutcomeIssued
	case cache.PrefetchDuplicate:
		return prefetch.OutcomeDuplicate
	case cache.PrefetchNoSpace:
		return prefetch.OutcomeNoSpace
	default:
		return prefetch.OutcomeNoRoom
	}
}

// newSM allocates SM id's warp slots, scheduler slices and L1, counting into
// st. It installs no prefetcher: reset does, before every run.
func newSM(id int, cfg config.GPU, st *stats.Sim) *sm {
	geom := cfg.Unified
	geom.SizeBytes = cfg.DataCacheBytes()
	wheelW, span := (cfg.MaxWarpsPerSM+63)>>6, wheelSpan(cfg)
	s := &sm{
		id:        id,
		cfg:       cfg,
		st:        st,
		warps:     make([]warpCtx, cfg.MaxWarpsPerSM),
		readyAt:   make([]int64, cfg.MaxWarpsPerSM),
		posOf:     make([]int32, cfg.MaxWarpsPerSM),
		wheel:     make([]uint64, span*wheelW),
		wheelW:    wheelW,
		wheelMask: int64(span - 1),
		l1: cache.NewL1(geom, cache.L1Options{
			MSHREntries:   cfg.MSHREntries,
			MergeCap:      cfg.MSHRMergeCap,
			MissQueueSize: cfg.MissQueueSize,
		}, st),
	}
	nSched := cfg.SchedulersPerSM
	s.scheds = make([]sched.Scheduler, nSched)
	s.ready = make([]sched.Set, nSched)
	s.ageBuf = make([][]int64, nSched)
	s.slotBuf = make([][]int, nSched)
	per := (cfg.MaxWarpsPerSM + nSched - 1) / nSched
	for i := range s.scheds {
		s.scheds[i] = sched.New(cfg.Scheduler)
		s.ready[i] = sched.NewSet(per)
		s.ageBuf[i] = make([]int64, 0, per)
		s.slotBuf[i] = make([]int, 0, per)
	}
	return s
}

// reset prepares the SM for a new run, from any state a previous run (or
// newSM) left: warp slots, scheduler slices, occupancy counters, the ports
// and the L1 are all cleared in place. The kernel pointer is cleared too —
// the engine's load installs the kernel whose CTAs the SM will host. pf
// handling depends on reusePf: when true the SM keeps its existing
// prefetcher instances (the caller guarantees the new run uses the same
// mechanism configuration) and resets them; when false pf replaces them and
// the L1's storage organization is derived from the new prefetcher. The
// per-run statistics block is reset by the engine (reinit clears its perSM
// blocks), not here — s.st keeps pointing into it.
func (s *sm) reset(pf prefetch.Prefetcher, reusePf bool) {
	for i := range s.warps {
		w := &s.warps[i]
		*w = warpCtx{futPCs: w.futPCs[:0], futAddrs: w.futAddrs[:0]}
	}
	s.resetReadiness()
	for _, sc := range s.scheds {
		sc.Reset()
	}
	for i := range s.slotBuf {
		s.ageBuf[i] = s.ageBuf[i][:0]
		s.slotBuf[i] = s.slotBuf[i][:0]
	}
	s.schedDirty = true
	s.resident = 0
	s.nReady = 0
	s.nWaitMem = 0
	s.nBarrier = 0
	s.kernel = nil
	s.nowCycle = 0
	s.fills.Reset()
	s.inbox = s.inbox[:0]
	s.mqExpiry = s.mqExpiry[:0]
	s.predrained = false
	if reusePf {
		if s.pf != nil {
			s.pf.Reset()
		}
		s.l1.Reset()
		return
	}
	s.pf = pf
	s.observer, _ = pf.(prefetch.OutcomeObserver)
	s.oracle = prefetch.WantsOracle(pf)
	dec, iso := prefetcherStorage(pf)
	s.l1.Reconfigure(dec, iso)
}

func prefetcherStorage(p prefetch.Prefetcher) (decoupled, isolated bool) {
	if h, ok := p.(prefetch.StorageHint); ok {
		return h.Storage()
	}
	return false, false
}

// freeSlots returns the number of unoccupied warp slots.
func (s *sm) freeSlots() int { return len(s.warps) - s.resident }

// dispatchCTA places a CTA's warps onto free slots. Caller must ensure
// enough free slots exist.
func (s *sm) dispatchCTA(k *trace.Kernel, ctaIdx int, age *int64) {
	cta := &k.CTAs[ctaIdx]
	wi := 0
	for slot := range s.warps {
		if wi >= len(cta.Warps) {
			break
		}
		if s.warps[slot].state != wsFree {
			continue
		}
		w := &s.warps[slot]
		pcs, addrs := w.futPCs[:0], w.futAddrs[:0] // the slot's oracle buffers, reused
		*age++
		*w = warpCtx{
			state:    wsReady,
			ctaIdx:   ctaIdx,
			prog:     &cta.Warps[wi],
			age:      *age,
			nextExit: -1,
		}
		if s.oracle {
			w.futPCs, w.futAddrs = loadStream(w.prog, pcs, addrs)
		}
		s.setReadyAt(slot, 0, 0)
		s.resident++
		s.nReady++
		wi++
	}
	if wi != len(cta.Warps) {
		panic("sim: dispatched CTA without enough free slots")
	}
	s.schedDirty = true
}

// loadStream appends the PC/address stream of a warp's loads to pcs and
// addrs.
func loadStream(p *trace.WarpProgram, pcs, addrs []uint64) ([]uint64, []uint64) {
	for _, in := range p.Insts {
		if in.Op == trace.OpLoad {
			pcs = append(pcs, uint64(in.PC))
			addrs = append(addrs, in.Addr)
		}
	}
	return pcs, addrs
}

// issueResult summarizes one SM-cycle of issue for stall classification.
type issueResult struct {
	retired     int
	resFail     bool
	ctaFinished bool // a CTA completed this cycle (slots freed)
}

// issue runs all scheduler slices for one cycle, adding each write-through
// store it issues to *stores, the engine's store count for this cycle.
func (s *sm) issue(cycle int64, stores *int32) issueResult {
	var res issueResult
	for si, sc := range s.scheds {
		if s.schedDirty {
			// execute may have completed a warp (or dispatched CTAs onto this
			// SM via fillSMs); later slices must see the updated membership,
			// exactly as the per-cycle rebuild did.
			s.refreshSched(cycle)
		}
		slots := s.slotBuf[si]
		if len(slots) == 0 {
			continue
		}
		pick := sc.Pick(s.ready[si], s.ageBuf[si])
		if pick < 0 {
			continue
		}
		s.execute(slots[pick], cycle, stores, &res)
	}
	return res
}

// execute issues warp slot's next instruction.
func (s *sm) execute(slot int, cycle int64, stores *int32, res *issueResult) {
	w := &s.warps[slot]
	in := &w.prog.Insts[w.pc]
	switch in.Op {
	case trace.OpCompute:
		w.busyUntil = cycle + int64(in.Lat)
		s.setReadyAt(slot, w.busyUntil, cycle)
		w.pc++
		s.st.Insts++
		res.retired++

	case trace.OpStore:
		*stores++
		w.busyUntil = cycle + 1
		s.setReadyAt(slot, w.busyUntil, cycle)
		w.pc++
		s.st.Insts++
		s.st.Stores++
		res.retired++

	case trace.OpBarrier:
		w.state = wsBarrier
		s.setReadyAt(slot, neverReady, cycle)
		s.nReady--
		s.nBarrier++
		w.pc++
		s.st.Insts++
		res.retired++
		s.maybeReleaseBarrier(w.ctaIdx, cycle)

	case trace.OpExit:
		if w.outstanding > 0 {
			// Drain in-flight loads before retiring so a freed slot can
			// never receive a stale wake-up.
			w.state = wsWaitMem
			s.setReadyAt(slot, neverReady, cycle)
			s.nReady--
			s.nWaitMem++
			return
		}
		w.state = wsDone
		s.setReadyAt(slot, neverReady, cycle)
		s.nReady--
		s.schedDirty = true
		s.st.Insts++
		res.retired++
		s.maybeReleaseBarrier(w.ctaIdx, cycle)
		if s.ctaLiveWarps(w.ctaIdx) == 0 {
			s.retireCTA(w.ctaIdx)
			res.ctaFinished = true
		}

	case trace.OpLoad:
		// Coalesce the warp's thread addresses into line transactions. The
		// primary (first) transaction carries the warp's dependency: its
		// outcome decides blocking and replay. Secondary transactions of a
		// divergent access consume MSHRs, miss-queue slots and bandwidth but
		// wake nobody — the warp's timing tracks its lead transaction, a
		// documented simplification for divergent loads.
		s.lineBuf = coalesce(s.lineBuf[:0], in.Addr, int32(in.Stride), s.cfg.WarpSize, s.l1.LineSize())
		out := s.l1.Access(slot, s.lineBuf[0], cycle)
		switch out {
		case stats.L1ReservationFail:
			// PC not advanced: the request is resent until accepted (§2).
			// The replay takes a few cycles to come around the access
			// pipeline again.
			w.busyUntil = cycle + 4
			s.setReadyAt(slot, w.busyUntil, cycle)
			res.resFail = true
			return
		case stats.L1Hit, stats.L1HitPrefetch:
			w.busyUntil = cycle + int64(s.cfg.Unified.Latency)
			s.setReadyAt(slot, w.busyUntil, cycle)
		default:
			// Miss or merged: the load is in flight. The warp keeps issuing
			// until its MLP window fills, then blocks until a fill drains it.
			w.outstanding++
			if w.outstanding >= s.cfg.MLPPerWarp {
				w.state = wsWaitMem
				s.setReadyAt(slot, neverReady, cycle)
				s.nReady--
				s.nWaitMem++
			} else {
				w.busyUntil = cycle + 2 // issue occupancy only
				s.setReadyAt(slot, w.busyUntil, cycle)
			}
		}
		for _, line := range s.lineBuf[1:] {
			s.l1.Access(cache.NoWaiterWarp, line, cycle)
		}
		w.pc++
		w.loadSeq++
		s.st.Insts++
		s.st.Loads++
		res.retired++
		s.notifyPrefetcher(slot, w, in, out, cycle)
	}
}

// notifyPrefetcher reports a retired load and applies returned requests.
func (s *sm) notifyPrefetcher(slot int, w *warpCtx, in *trace.Inst, out stats.L1Outcome, cycle int64) {
	if s.pf == nil {
		return
	}
	ev := prefetch.AccessEvent{
		Cycle:     cycle,
		SM:        s.id,
		CTAID:     w.ctaIdx,
		CTABase:   s.kernel.CTAs[w.ctaIdx].BaseAddr,
		WarpID:    slot,
		WarpInCTA: w.prog.IDInCTA,
		PC:        uint64(in.PC),
		Addr:      in.Addr,
		LineAddr:  s.l1.LineAddr(in.Addr),
		Hit:       out == stats.L1Hit || out == stats.L1HitPrefetch,
		SeqInWarp: w.loadSeq - 1,
	}
	if s.oracle {
		ev.FuturePCs = w.futPCs[w.loadSeq:]
		ev.FutureAddrs = w.futAddrs[w.loadSeq:]
	}
	for _, r := range s.pf.OnAccess(ev) {
		if s.oracle {
			// The Ideal oracle's predictions are free: they always count,
			// whether or not the line was already resident.
			s.l1.MagicFill(r.Addr, cycle)
			s.l1.Predict(r.Addr)
			continue
		}
		// Only accepted (or deduplicated) prefetches count as predictions;
		// requests the memory system had to drop never became prefetches.
		oc := s.l1.PrefetchLine(r.Addr, cycle)
		if oc != cache.PrefetchNoRoom {
			s.l1.Predict(r.Addr)
		}
		if s.observer != nil {
			s.observer.OnPrefetchOutcome(r.Addr, outcomeOf(oc), cycle, s.env)
		}
	}
	s.l1.SetTrained(s.pf.Trained())
}

// ctaLiveWarps counts warps of the CTA not yet done.
func (s *sm) ctaLiveWarps(ctaIdx int) int {
	n := 0
	for i := range s.warps {
		w := &s.warps[i]
		if w.state != wsFree && w.state != wsDone && w.ctaIdx == ctaIdx {
			n++
		}
	}
	return n
}

// retireCTA frees the slots of a completed CTA.
func (s *sm) retireCTA(ctaIdx int) {
	for i := range s.warps {
		w := &s.warps[i]
		if w.state == wsDone && w.ctaIdx == ctaIdx {
			w.state = wsFree
			w.prog = nil
			s.resident--
		}
	}
}

// maybeReleaseBarrier releases the CTA's warps when all have arrived.
func (s *sm) maybeReleaseBarrier(ctaIdx int, cycle int64) {
	for i := range s.warps {
		w := &s.warps[i]
		if w.ctaIdx != ctaIdx || w.state == wsFree {
			continue
		}
		if w.state == wsReady || w.state == wsWaitMem {
			return // someone still running
		}
	}
	for i := range s.warps {
		w := &s.warps[i]
		if w.ctaIdx == ctaIdx && w.state == wsBarrier {
			w.state = wsReady
			s.nBarrier--
			s.nReady++
			w.busyUntil = cycle + 1
			s.setReadyAt(i, w.busyUntil, cycle)
		}
	}
}

// wake drains one outstanding load per waiter entry and unblocks warps whose
// MLP window has room again.
func (s *sm) wake(slots []int, cycle int64) {
	for _, slot := range slots {
		if slot < 0 || slot >= len(s.warps) {
			continue
		}
		w := &s.warps[slot]
		if w.outstanding > 0 {
			w.outstanding--
		}
		if w.state == wsWaitMem && w.outstanding < s.cfg.MLPPerWarp {
			w.state = wsReady
			s.nWaitMem--
			s.nReady++
			w.busyUntil = cycle
			s.setReadyAt(slot, cycle, cycle)
		}
	}
}

// classifyStall records the stall type for a cycle in which nothing retired,
// using the incrementally-maintained state counts: a stall is memory-bound on
// a reservation failure, or when at least one warp waits on memory and none
// is ready or at a barrier.
func (s *sm) classifyStall(resFail bool) {
	if s.resident == 0 {
		return
	}
	if resFail || s.nWaitMem > 0 && s.nReady == 0 && s.nBarrier == 0 {
		s.st.StallMemory++
	} else {
		s.st.StallOther++
	}
}

// done reports whether every slot is free.
func (s *sm) done() bool { return s.resident == 0 }
