package sim

import "snake/internal/icnt"

// shard is one SM-side unit of the epoch loop: the SM (warps, scheduler
// slices, L1, MSHRs, statistics) plus its attached prefetcher, together with
// the typed ports that are its only connection to the memory side.
//
// The engine's one goroutine ticks every shard in smID order:
//
//   - During the tick phase of an epoch, tickSpan touches the shard's own
//     state, the inbox the drain phase filled, and the engine's per-epoch
//     record (epochOut) it adds its stores, CTA finishes and last-cycle
//     retirement to. It never reads another shard or memory-side state.
//   - In the drain and merge phases the engine owns the whole shard: it
//     delivers ingress messages, pulls from the request port, and may
//     dispatch CTAs.
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

	// predrained records that the engine's serial phase already ran this
	// epoch's first-sub-cycle prefetch drain (after that sub-cycle's
	// injection pull, matching the per-cycle drain-after-pull order), so
	// tickSpan must skip the drain at its first sub-cycle. Hoisting that
	// one drain is what lets epochs span the full horizon: its entries are
	// stamped one cycle early (cache.L1.DrainPrefetch) and would otherwise
	// mature inside a full-width epoch.
	predrained bool
}

func newShard(s *sm) *shard {
	return &shard{sm: s}
}

// reset empties the shard's ports for a new run on a recycled
// engine, keeping the ring and inbox backing arrays. The SM itself is reset
// separately (sm.reset).
func (sh *shard) reset() {
	sh.fills.Reset()
	sh.inbox = sh.inbox[:0]
	sh.inboxStamp = sh.inboxStamp[:0]
	sh.mqExpiry = sh.mqExpiry[:0]
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
// schedulers, and classify the stall if nothing retired. Everything the
// epoch merge needs — stores per sub-cycle, CTA finishes, whether the last
// sub-cycle retired anything — is added straight into out, which the engine
// sized to the span.
//
// Phantom credit: the engine's serial phase already pulled the whole epoch's
// injections from the miss queue, but at sub-cycle c some of those entries'
// modeled residency (stamp + turnaround) has not yet elapsed. They are
// presented back to the L1 as phantom occupancy — and the clock ages the
// still-queued entries — so every Full check (reservation fails, prefetch
// drain) sees exactly the occupancy the virtual-residency model defines,
// independent of epoch shape.
func (sh *shard) tickSpan(from, to int64, out *epochOut) {
	s := sh.sm
	exp, fi := 0, 0
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
		res := s.issue(c, &out.stores[i])
		if res.retired == 0 {
			s.classifyStall(res.resFail)
		} else if c == to {
			out.retiredLast = true
		}
		if res.ctaFinished {
			out.cta.set(i)
		}
	}
	s.l1.SetMissQueueClock(to, 0)
	sh.inbox = sh.inbox[:0]
	sh.inboxStamp = sh.inboxStamp[:0]
}

// --- request port (serial phase only) -----------------------------------
//
// The memory side pulls fill requests from the shard rather than the shard
// pushing them: how many it may inject per cycle depends on global state
// (request-network bandwidth, the in-flight cap) that only the memory side
// sees. The pull happens in the drain phase, in fixed smID order, which is the
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
