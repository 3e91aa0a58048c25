package sim

// This file defines the typed, cycle-stamped messages that cross the
// SM / memory-side boundary, and the SM's ports they cross through:
//
//	SM          --reqMsg-->  memory side  (fill requests, pulled from the
//	                                       SM's request port in the drain
//	                                       phase, in smID order)
//	memory side --fillMsg--> SM           (line fills, pushed into the SM's
//	                                       cycle-stamped ingress queue,
//	                                       delivered when due)
//
// Nothing downstream reads a write-through store's address or SM, so stores
// cross as a count: each SM's tick adds the stores it issued at each
// sub-cycle into the engine's per-epoch count (engine.epochOut), and the
// merge queues one (cycle, n) batch per sub-cycle for drainStores.
//
// Everything else an SM owns (warps, L1, MSHRs, prefetcher, statistics) is
// private to it, which is what lets an SM tick a whole epoch on its own;
// see DESIGN.md "Epoch loop".

import "snake/internal/icnt"

// fillMsg is a completed memory response in flight toward an SM's L1. It is
// delivered through the SM's icnt.Ingress queue, whose stamp carries the
// delivery cycle.
type fillMsg struct {
	lineAddr uint64
	prefetch bool
}

// reqMsg is a fill request in flight toward the L2 side. Its ingress stamp
// carries the arrival cycle at the partition crossbar; seq is the request's
// global arrival rank, assigned by the engine at injection time (strictly
// increasing across all partitions). The computed response inherits seq, so
// partitions can push responses onto the heap in partition-major order and
// the heap still replays them in exact serial arrival order — which is what
// lets routing bin requests per partition at injection instead of in a
// serial per-epoch walk.
type reqMsg struct {
	sm       int
	seq      int64
	lineAddr uint64
	prefetch bool
}

// storeBatch is the write-through stores issued at one cycle, across all
// SMs, waiting to cross the request network. The engine may not send them
// before cycle + slack horizon: the visibility delay that makes the
// epoch-deferred merge invisible (see DESIGN.md "Bounded-slack ticking").
type storeBatch struct {
	cycle int64
	n     int32
}

// deliverDue moves ingress fills due at or before cycle into the inbox, in
// stamp order (stamping each entry with cycle — deliveries always land
// exactly on time, the engine never overshoots a delivery), and returns how
// many it moved. Serial phase only: the engine uses the count to release
// fill-cap capacity before it arbitrates this sub-cycle's request
// injection, exactly when the serial engine's delivery events released it.
func (s *sm) deliverDue(cycle int64) int {
	n := 0
	for {
		f, ok := s.fills.PopDue(cycle)
		if !ok {
			break
		}
		s.inbox = append(s.inbox, icnt.Stamped[fillMsg]{Cycle: cycle, Msg: f})
		n++
	}
	return n
}

// tickSpan executes the epoch [from, to] on this SM, one sub-cycle at a
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
func (s *sm) tickSpan(from, to int64, out *epochOut) {
	exp, fi := 0, 0
	for i, c := int64(0), from; c <= to; i, c = i+1, c+1 {
		for exp < len(s.mqExpiry) && s.mqExpiry[exp] <= c {
			exp++
		}
		s.l1.SetMissQueueClock(c, len(s.mqExpiry)-exp)
		s.nowCycle = c
		s.drainReady(c)
		if i == 0 && s.predrained {
			// The serial phase ran this sub-cycle's prefetch drain (see
			// engine.serialPhase); running it again would double-drain.
			s.predrained = false
		} else {
			s.l1.DrainPrefetch(c)
		}
		for fi < len(s.inbox) && s.inbox[fi].Cycle <= c {
			waiters := s.l1.Fill(s.inbox[fi].Msg.lineAddr, c)
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
	s.inbox = s.inbox[:0]
}

// --- request port (serial phase only) -----------------------------------
//
// The memory side pulls fill requests from the SM rather than the SM pushing
// them: how many it may inject per cycle depends on global state
// (request-network bandwidth, the in-flight cap) that only the memory side
// sees. The pull happens in the drain phase, in fixed smID order, which is the
// deterministic merge order of the SM→memory request stream.

// peekReq reports whether a fill request is ready to inject at cycle: the
// queue head must have matured past the slack horizon (pushed at p, ready at
// p + horizon). Requests staged during the current epoch's tick spans are
// therefore never injection candidates within it — the visibility delay that
// lets the serial phase run a whole epoch ahead of the ticks. FIFO order is
// preserved: stamps are non-decreasing along the queue.
func (s *sm) peekReq(cycle, horizon int64) bool {
	r, any := s.l1.PeekMiss()
	return any && r.Cycle+horizon <= cycle
}

// popReq removes the next fill request from the port, recording its virtual
// injection cycle — when its modeled queue residency elapses — for
// tickSpan's phantom credit.
func (s *sm) popReq() (reqMsg, bool) {
	r, ok := s.l1.PopMiss()
	if !ok {
		return reqMsg{}, false
	}
	s.mqExpiry = append(s.mqExpiry, r.VInj)
	return reqMsg{sm: s.id, lineAddr: r.LineAddr, prefetch: r.Prefetch}, true
}

// nextFill returns the earliest pending ingress delivery (-1: none).
func (s *sm) nextFill() int64 { return s.fills.NextCycle() }
