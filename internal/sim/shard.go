package sim

import "snake/internal/icnt"

// shard is one SM-side unit of parallel execution: the SM (warps, scheduler
// slices, L1, MSHRs, statistics) plus its attached prefetcher, together with
// the typed ports that are its only connection to the memory side.
//
// Ownership protocol (what makes parallel ticking deterministic and
// race-free):
//
//   - During the parallel phase of a cycle, exactly one worker runs
//     sh.tick, which touches only shard-private state, the inbox the serial
//     phase filled, and the shard's egress buffer. It never reads another
//     shard or writes memory-side state.
//   - Between barriers (the serial phases), the engine goroutine owns the
//     whole shard: it delivers ingress messages, pulls from the request
//     port, merges the egress, and may dispatch CTAs.
//
// The barrier's synchronization establishes the happens-before edges between
// the two phases, so the protocol is also what the race detector checks.
type shard struct {
	sm *sm

	// fills is the memory→SM ingress port: completed responses in flight,
	// stamped with their delivery cycle. The serial phase pushes (send order
	// is non-decreasing in delivery cycle because the response network
	// serializes bandwidth) and moves due messages to inbox; tickSpan
	// consumes each at its stamped sub-cycle.
	fills icnt.Ingress[fillMsg]
	// inbox holds the fills due this epoch, in stamp order, for tickSpan;
	// inboxStamp carries each entry's delivery sub-cycle.
	inbox      []fillMsg
	inboxStamp []int64

	// mqExpiry records, per request the engine's serial phase pulled from
	// this shard's miss queue this epoch, the sub-cycle at which the entry's
	// modeled queue residency elapses (stamp + turnaround), in ascending
	// order — the schedule behind the phantom-credit occupancy tickSpan
	// presents to the L1 (see tickSpan).
	mqExpiry []int64

	// out is the SM→memory egress port, appended to during tickSpan and
	// merged by the engine at the epoch barrier in (cycle, smID, seq) order.
	out egress

	// storeCnt is the counting-scatter scratch for the epoch store merge:
	// tickSpan counts this shard's staged stores per sub-cycle (pass 1, in
	// parallel), the engine's prefix-sum rewrites the counts into destination
	// offsets in place (pass 2), and scatterStores consumes them (pass 3).
	// Only meaningful for epochs in which the shard staged stores; recycled
	// across epochs and runs.
	storeCnt []int32

	// report is tickSpan's summary for the epoch merge: bit i of a set is
	// sub-cycle from+i.
	report tickReport

	// predrained records that the engine's serial phase already ran this
	// epoch's first-sub-cycle prefetch drain (after that sub-cycle's
	// injection pull, matching the per-cycle drain-after-pull order), so
	// tickSpan must skip the drain at its first sub-cycle. Hoisting that
	// one drain is what lets epochs span the full horizon: its entries are
	// stamped one cycle early (cache.L1.DrainPrefetch) and would otherwise
	// mature inside a full-width epoch.
	predrained bool
}

// tickReport summarizes one shard tick span for the serial merge phase.
// The bitsets are variable-width — one bit per epoch sub-cycle, sized by
// tickSpan to the span it runs — so the horizon is bounded by the config
// audit alone, not by a word size.
type tickReport struct {
	retired epochBits // sub-cycles at which an instruction retired
	cta     epochBits // sub-cycles at which a CTA completed (slots freed)
}

func newShard(s *sm) *shard {
	return &shard{sm: s, out: egress{sm: s.id}}
}

// reset empties the shard's ports and report for a new run on a recycled
// engine, keeping the ring and inbox backing arrays. The SM itself is reset
// separately (sm.reset).
func (sh *shard) reset() {
	sh.fills.Reset()
	sh.inbox = sh.inbox[:0]
	sh.inboxStamp = sh.inboxStamp[:0]
	sh.mqExpiry = sh.mqExpiry[:0]
	sh.out.seq = 0
	sh.out.stores = sh.out.stores[:0]
	sh.report.retired.reset(0)
	sh.report.cta.reset(0)
	sh.predrained = false
}

// deliverDue moves ingress fills due at or before cycle into the inbox, in
// stamp order (stamping each entry with cycle — deliveries always land
// exactly on time, the engine never overshoots a delivery), and returns how
// many it moved. Serial phase only: the engine uses the count to release
// MaxInflightFills capacity before it arbitrates this sub-cycle's request
// injection, exactly when the serial engine's delivery events released it.
func (sh *shard) deliverDue(cycle int64) int {
	n := 0
	for {
		f, ok := sh.fills.PopDue(cycle)
		if !ok {
			break
		}
		sh.inbox = append(sh.inbox, f)
		sh.inboxStamp = append(sh.inboxStamp, cycle)
		n++
	}
	return n
}

// tickSpan executes the epoch [from, to] on this shard, one sub-cycle at a
// time: apply the warp readiness due at that sub-cycle (sm.drainReady),
// trickle staged prefetches, apply the fills delivered at that
// sub-cycle, run the prefetcher's per-cycle hook, issue from the warp
// schedulers, and classify the stall if nothing retired. Safe to run
// concurrently with other units' spans; all cross-boundary output lands in
// sh.out and sh.report.
//
// Phantom credit: the engine's serial phase already pulled the whole epoch's
// injections from the miss queue, but at sub-cycle c some of those entries'
// modeled residency (stamp + turnaround) has not yet elapsed. They are
// presented back to the L1 as phantom occupancy — and the clock ages the
// still-queued entries — so every Full check (reservation fails, prefetch
// drain) sees exactly the occupancy the virtual-residency model defines,
// independent of epoch shape.
func (sh *shard) tickSpan(from, to int64) {
	s := sh.sm
	exp := 0
	words := int((to-from)>>6) + 1
	sh.report.retired.reset(words)
	sh.report.cta.reset(words)
	fi := 0
	for i, c := int64(0), from; c <= to; i, c = i+1, c+1 {
		for exp < len(sh.mqExpiry) && sh.mqExpiry[exp] <= c {
			exp++
		}
		s.l1.SetMissQueueClock(c, len(sh.mqExpiry)-exp)
		s.nowCycle = c
		s.drainReady(c)
		if i == 0 && sh.predrained {
			// The serial phase ran this sub-cycle's prefetch drain (see
			// engine.serialPhase); running it again would double-drain.
			sh.predrained = false
		} else {
			s.l1.DrainPrefetch(c)
		}
		for fi < len(sh.inbox) && sh.inboxStamp[fi] <= c {
			waiters := s.l1.Fill(sh.inbox[fi].lineAddr, c)
			s.wake(waiters, c)
			fi++
		}
		if s.pf != nil {
			s.pf.OnCycle(c, s.env)
		}
		res := s.issue(c, &sh.out)
		if res.retired > 0 {
			sh.report.retired.set(i)
		} else {
			s.classifyStall(res.resFail)
		}
		if res.ctaFinished {
			sh.report.cta.set(i)
		}
	}
	s.l1.SetMissQueueClock(to, 0)
	sh.inbox = sh.inbox[:0]
	sh.inboxStamp = sh.inboxStamp[:0]
	if len(sh.out.stores) > 0 {
		// Pass 1 of the epoch store merge (engine.mergeStores): count this
		// shard's stores per sub-cycle, here in the parallel phase so the
		// serial merge only prefix-sums per-unit counts. The stream is
		// cycle-sorted (sub-cycles run forward), so indices are in range.
		span := int(to-from) + 1
		if cap(sh.storeCnt) < span {
			sh.storeCnt = make([]int32, span)
		} else {
			sh.storeCnt = sh.storeCnt[:span]
			clear(sh.storeCnt)
		}
		for i := range sh.out.stores {
			sh.storeCnt[sh.out.stores[i].cycle-from]++
		}
	}
}

// scatterStores is pass 3 of the epoch store merge: write this shard's
// staged stores into their reserved slots of dst (the engine's merge window)
// and clear the egress. storeCnt holds the destination offset for each
// sub-cycle's group after the engine's prefix-sum; consecutive stores of one
// sub-cycle land at consecutive offsets, preserving seq order within the
// group. Offsets of different shards are disjoint by construction.
func (sh *shard) scatterStores(dst []storeMsg, from int64) {
	for i := range sh.out.stores {
		m := &sh.out.stores[i]
		c := m.cycle - from
		dst[sh.storeCnt[c]] = *m
		sh.storeCnt[c]++
	}
	sh.out.stores = sh.out.stores[:0]
}

// --- request port (serial phase only) -----------------------------------
//
// The memory side pulls fill requests from the shard rather than the shard
// pushing them: how many it may inject per cycle depends on global state
// (request-network bandwidth, the in-flight cap) that only the memory side
// sees. The pull happens at the barrier, in fixed smID order, which is the
// deterministic merge order of the SM→memory request stream.

// peekReq reports whether a fill request is ready to inject at cycle: the
// queue head must have matured past the slack horizon (pushed at p, ready at
// p + horizon). Requests staged during the current epoch's tick spans are
// therefore never injection candidates within it — the visibility delay that
// lets the serial phase run a whole epoch ahead of the ticks. FIFO order is
// preserved: stamps are non-decreasing along the queue.
func (sh *shard) peekReq(cycle, horizon int64) bool {
	r, any := sh.sm.l1.PeekMiss()
	return any && r.Cycle+horizon <= cycle
}

// popReq removes the next fill request from the port, recording its virtual
// injection cycle — when its modeled queue residency elapses — for
// tickSpan's phantom credit.
func (sh *shard) popReq() (reqMsg, bool) {
	r, ok := sh.sm.l1.PopMiss()
	if !ok {
		return reqMsg{}, false
	}
	sh.mqExpiry = append(sh.mqExpiry, r.VInj)
	return reqMsg{sm: sh.sm.id, lineAddr: r.LineAddr, prefetch: r.Prefetch}, true
}

// nextFill returns the earliest pending ingress delivery (-1: none).
func (sh *shard) nextFill() int64 { return sh.fills.NextCycle() }

// pendingFills returns in-flight plus delivered-but-unconsumed fills.
func (sh *shard) pendingFills() int { return sh.fills.Len() + len(sh.inbox) }
