package sim

import (
	"math"
	"math/bits"

	"snake/internal/config"
)

// Issue readiness is tracked incrementally so a cycle's issue costs time in
// proportion to readiness changes, not to warps. The invariant, for a slice
// whose membership is current (schedDirty false) at the cycle c being
// ticked: bit p of ready[si] is set exactly when readyAt[slotBuf[si][p]]
// ≤ c. Three writers keep it:
//
//   - setReadyAt, the only writer of readyAt after reset, updates the bit at
//     once and files any future readiness in the wheel;
//   - drainReady, run at the top of every sub-cycle, sets the bits of warps
//     whose readiness arrives at that cycle;
//   - refreshSched rebuilds positions and bits from readyAt whenever
//     membership changes.
//
// Wheel entries are filtered against readyAt when they drain, so an entry
// made stale by a later setReadyAt is harmless. While the membership is
// stale, bits may be set at stale positions; refreshSched rebuilds every
// set before the next Pick.

// wheelSpan is the timing wheel's reach in cycles under cfg: the power of
// two above the furthest ahead setReadyAt can file, which is a compute
// latency (at most math.MaxInt8, trace.Static.Lat's bound) or an L1 hit
// (Unified.Latency, at most config.LimitLatency). Replay, issue and barrier
// release are a few cycles. So every future readiness has a bucket of its
// own cycle: 128 buckets under the default config, 1,024 at the limit.
func wheelSpan(cfg config.GPU) int {
	return 1 << bits.Len(uint(max(math.MaxInt8, cfg.Unified.Latency)))
}

// resetReadiness empties readyAt, the positions, the ready sets and the
// wheel.
func (s *sm) resetReadiness() {
	for i := range s.readyAt {
		s.readyAt[i] = neverReady
		s.posOf[i] = -1
	}
	for _, set := range s.ready {
		set.Clear()
	}
	clear(s.wheel)
}

// setReadyAt sets slot's readiness cycle to at during cycle now.
func (s *sm) setReadyAt(slot int, at, now int64) {
	s.readyAt[slot] = at
	if p := s.posOf[slot]; p >= 0 {
		if set := s.ready[slot%len(s.scheds)]; at <= now {
			set.Add(int(p))
		} else {
			set.Remove(int(p))
		}
	}
	if at <= now || at == neverReady {
		return
	}
	s.wheel[int(at&s.wheelMask)*s.wheelW+slot>>6] |= uint64(1) << (uint(slot) & 63)
}

// markReady sets slot's ready bit if its readiness has arrived at cycle c.
func (s *sm) markReady(slot int, c int64) {
	if p := s.posOf[slot]; p >= 0 && s.readyAt[slot] <= c {
		s.ready[slot%len(s.scheds)].Add(int(p))
	}
}

// drainReady applies the readiness arriving at cycle c: the wheel bucket of
// c. Every cycle must be drained in order, as the engine's contiguous
// epochs do.
func (s *sm) drainReady(c int64) {
	b := s.wheel[int(c&s.wheelMask)*s.wheelW:][:s.wheelW]
	for wi, w := range b {
		if w == 0 {
			continue
		}
		b[wi] = 0
		for ; w != 0; w &= w - 1 {
			s.markReady(wi<<6|bits.TrailingZeros64(w), c)
		}
	}
}

// refreshSched rebuilds the per-scheduler slot/age lists, the slot
// positions and the ready sets at cycle. Membership (every warp not free and
// not done) only changes on CTA dispatch and warp completion, so the lists
// are cached between those points.
func (s *sm) refreshSched(cycle int64) {
	nSched := len(s.scheds)
	for si := 0; si < nSched; si++ {
		slots := s.slotBuf[si][:0]
		ages := s.ageBuf[si][:0]
		set := s.ready[si]
		set.Clear()
		for slot := si; slot < len(s.warps); slot += nSched {
			w := &s.warps[slot]
			if w.state == wsFree || w.state == wsDone {
				s.posOf[slot] = -1
				continue
			}
			p := len(slots)
			s.posOf[slot] = int32(p)
			if s.readyAt[slot] <= cycle {
				set.Add(p)
			}
			slots = append(slots, slot)
			ages = append(ages, w.age)
		}
		s.slotBuf[si], s.ageBuf[si] = slots, ages
	}
	s.schedDirty = false
}
