package sim

import (
	"fmt"

	"snake/internal/config"
)

// TurnaroundCap bounds the engine's turnaround delay: the fixed number of
// cycles between a tick-side event (a store issue, a CTA's last warp
// retiring) and the serial engine replaying it on the memory side (the store
// maturing for network injection, freed warp slots redispatching). The per-cycle engine replays these the next
// serial pass; bounded-slack ticking defers them by a constant so that every
// epoch shape yields the same replay cycle. Earlier revisions tied that
// constant to the horizon itself (then capped at 8), which meant widening
// the slack window bought barrier amortization at the price of modeling
// latency. The turnaround is now min(horizon, TurnaroundCap): identical to
// the old behaviour at every bound, but pinned — lifting the horizon to the
// full config bound no longer moves store or re-dispatch timing at all.
const TurnaroundCap = 8

// latencyUnobserved is the sentinel minimum of the engine's observed-latency
// floors (minReqLat, minRespLat, memPartition.minRespLat) while no message
// has crossed.
const latencyUnobserved = int64(1)<<62 - 1

// SlackSchedule returns the bounded-slack schedule the engine runs cfg with:
// the horizon, which is the full audit bound (config.SlackBound, at least 1
// even for an unvalidated config), and the turnaround, min(horizon,
// TurnaroundCap). Both are pure functions of the config, so the schedule
// needs no run to report.
func SlackSchedule(cfg config.GPU) (horizon, turnaround int64) {
	horizon = max(int64(cfg.SlackBound()), 1)
	return horizon, min(horizon, TurnaroundCap)
}

// initSlack derives the engine's slack parameters from the (validated)
// config and options: horizon and turnaround from the config alone
// (SlackSchedule), and slackMax from the options' slackWindow clamped into
// [1, horizon]. Epochs may span the whole horizon: the drained-prefetch
// one-cycle-early stamp that used to force a horizon−1 cap is handled at its
// source (the serial phase runs the epoch's first prefetch drain itself; see
// engine.serialPhase).
func (e *engine) initSlack() {
	e.horizon, e.turn = SlackSchedule(e.cfg)
	e.slackMax = int64(e.opt.slackWindow)
	if e.slackMax <= 0 || e.slackMax > e.horizon {
		e.slackMax = e.horizon
	}
	e.slackErr = nil
	e.epochStart = 0
	e.respSeq = 0
	e.minReqLat = latencyUnobserved
	e.minRespLat = latencyUnobserved
	// A miss-queue entry occupies a modeled slot until its virtual injection
	// cycle — turnaround residency plus per-cycle budget delays, in queue
	// order — however much later the engine pulls it (stamp + horizon).
	// Virtual occupancy keeps backpressure — reservation fails, prefetch
	// throttling — independent of the horizon the epoch machinery runs at.
	for _, s := range e.sms {
		s.l1.SetMissQueueInjectionModel(e.turn, missInjectPerSM)
	}
}

// slackConflict records an event whose replay cycle landed inside its own
// epoch — impossible while every access path honours the L2 latency floor
// (memPartition.access) and the epoch cutter honours the turnaround bound
// (actBound), so reaching here means one of those invariants broke and the
// epoch's stats cannot be trusted. The first conflict fails the run: run
// returns it once the epoch's merge completes.
func (e *engine) slackConflict(matureAt, end int64) {
	if e.slackErr == nil {
		e.slackErr = fmt.Errorf("sim: slack conflict: event matures at %d within epoch ending %d (horizon %d, turnaround %d)", matureAt, end, e.horizon, e.turn)
	}
}

// --- adaptive epoch cutter ----------------------------------------------
//
// CTA retirements replay after the turnaround delay, which is shorter than
// a wide horizon — so an epoch is admissible only while no SM can retire
// a CTA early enough for its slot-refill to land inside the epoch. actBound
// computes a conservative lower bound on the earliest cycle any warp could
// retire through an OpExit (relevant only while CTA re-dispatch could
// consume the freed slots), and the epoch loop caps
// the window at actBound + turnaround − 1. Stores need no bound: they
// mature after the full horizon (drainStores), which no epoch can span.
// During exit-heavy dispatch phases the cap shrinks epochs back toward the
// turnaround (exactly the old schedule); during memory stalls — where wide
// windows actually pay — every blocked warp's wake floor pushes the bound
// out and epochs stretch to the full horizon.
//
// Soundness of the per-warp floors:
//
//   - Every instruction costs at least one cycle (even zero-latency compute
//     advances busyUntil past the issue cycle), so pc-to-op instruction
//     distance is a valid lower bound on cycles-to-issue; replays,
//     reservation fails and barriers only delay further.
//   - A memory-blocked warp wakes no earlier than the first pending fill
//     delivery; a response not yet sent cannot be delivered before
//     start + horizon (the response network's latency is ≥ the bound).
//   - A barrier-parked warp needs some non-barrier warp to retire first and
//     is released to issue the cycle after, hence the aMin+1 floor.
//   - Dispatches land only at epoch starts (run() caps maxEnd at them),
//     so a scan at the epoch start sees every warp that could issue
//     within the epoch.
func (e *engine) actBound(start int64) int64 {
	if e.ctaNext >= len(e.kernel.CTAs) {
		return -1 // no consumer for freed slots: exits need no replay cap
	}
	best := int64(-1)
	for _, s := range e.sms {
		if s.resident == 0 {
			continue
		}
		fwake := start + e.horizon
		if f := s.nextFill(); f >= 0 && f < fwake {
			fwake = f
		}
		if fwake < start {
			fwake = start
		}
		// aMin: the earliest any ready or memory-blocked warp can issue;
		// barrier releases chain off one of those retiring.
		aMin := int64(-1)
		for slot := range s.warps {
			var c int64
			switch s.warps[slot].state {
			case wsReady:
				if c = s.readyAt[slot]; c < start {
					c = start
				}
			case wsWaitMem:
				c = fwake
			default:
				continue
			}
			if aMin < 0 || c < aMin {
				aMin = c
			}
		}
		for slot := range s.warps {
			w := &s.warps[slot]
			var base int64
			switch w.state {
			case wsReady:
				if base = s.readyAt[slot]; base < start {
					base = start
				}
			case wsWaitMem:
				base = fwake
			case wsBarrier:
				if aMin < 0 {
					continue
				}
				base = aMin + 1
			default:
				continue
			}
			// Validate puts a warp's only exit last.
			if c := base + int64(w.prog.Len()-1-w.pc); best < 0 || c < best {
				best = c
			}
		}
		if best == start {
			return start
		}
	}
	return best
}

// --- variable-width epoch reports ----------------------------------------

// epochBits is a per-epoch bitset with one bit per sub-cycle: bit i covers
// sub-cycle from+i of the span. Backing words are recycled across epochs
// and runs, so steady-state epochs allocate nothing.
type epochBits []uint64

// reset resizes the bitset to cover words 64-bit words and clears it.
func (b *epochBits) reset(words int) {
	s := *b
	if cap(s) < words {
		*b = make([]uint64, words)
		return
	}
	s = s[:words]
	for i := range s {
		s[i] = 0
	}
	*b = s
}

// set marks sub-cycle offset i.
func (b epochBits) set(i int64) { b[i>>6] |= 1 << uint(i&63) }
