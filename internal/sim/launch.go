package sim

import (
	"math/bits"

	"snake/internal/stats"
	"snake/internal/trace"
)

// Application launch layer (DESIGN.md "Application launch layer"): the engine
// is split into a persistent machine — SM shards, L2 partitions, ports,
// barrier, allocated once per config — and per-launch state held in launchRun
// records. The run loop doubles as a launch scheduler: when a launch's last
// CTA completes, the launch retires at that cycle c*, its SMs are released,
// and any launch whose dependencies are all retired activates at c* + horizon
// (a wake, handled exactly like matured CTA redispatch: epochs are capped so
// the wake lands on an epoch start, keeping results independent of epoch
// shape). A bare Kernel runs as the trivial one-launch App through the same
// machinery, bit-identical to the pre-launch-layer engine — the equivalence
// matrices are the oracle.

// launchPhase is a launch's lifecycle state.
type launchPhase uint8

const (
	lnPending launchPhase = iota // waiting on dependencies or SMs
	lnRunning                    // CTAs dispatching/executing on its SMs
	lnRetired                    // last CTA completed
)

// launchRun is the per-launch simulation state: the CTA dispatch cursor, the
// launch's SM shard set, and its attributed statistics. Everything machine-
// shaped lives on the engine; everything here is rebuilt by loadApp.
type launchRun struct {
	kernel *trace.Kernel
	deps   []int
	mask   uint64 // 0: all SMs
	tenant int
	state  launchPhase

	ctaNext int      // next undispatched CTA index
	shards  []*shard // the launch's SM shards, smID order (aliases e.shards for a full mask)

	start  int64     // activation cycle
	retire int64     // last-CTA-completion cycle c*
	acc    stats.Sim // counters attributed to this launch (see claimSMs)
}

// singleApp wraps a bare kernel as a one-launch App using engine-owned
// scratch, so the kernel Run path stays allocation-free on reuse.
func (e *engine) singleApp(k *trace.Kernel) *trace.App {
	e.oneLaunch[0] = trace.KernelLaunch{Kernel: k}
	e.oneApp = trace.App{Name: k.Name, Launches: e.oneLaunch[:]}
	return &e.oneApp
}

// loadApp installs an application's launch state onto the machine: one
// launchRun per launch, all SMs released and attribution cleared, then the
// initial activation wave (every launch with no dependencies whose SM mask is
// free, in App order).
func (e *engine) loadApp(a *trace.App) {
	e.app = a
	e.launches = e.launches[:0]
	for i := range a.Launches {
		l := &a.Launches[i]
		e.launches = append(e.launches, launchRun{
			kernel: l.Kernel,
			deps:   l.DependsOn,
			mask:   l.SMMask,
			tenant: l.Tenant,
			state:  lnPending,
			shards: e.maskShards(l.SMMask),
		})
	}
	e.pendingLn = len(e.launches)
	e.wakeAt = e.wakeAt[:0]
	for i := range e.smBusy {
		e.smBusy[i] = -1
		e.smAttr[i] = -1
	}
	// Initial activations never flush prefetcher state: a fresh machine has
	// nothing to flush, and a sequence run (prepareKernel) applies its own
	// ResetPrefetchers policy. ChainPersistence governs scheduler
	// activations only (applyWakes).
	e.activateEligible(e.cycle, false)
}

// maskShards resolves a launch SM mask to its shard set in smID order. The
// zero mask aliases the engine's full shard slice (no allocation — the
// single-kernel hot path).
func (e *engine) maskShards(mask uint64) []*shard {
	if mask == 0 {
		return e.shards
	}
	out := make([]*shard, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, e.shards[bits.TrailingZeros64(m)])
	}
	return out
}

// depsRetired reports whether all of a launch's dependencies have retired.
func (e *engine) depsRetired(ln *launchRun) bool {
	for _, d := range ln.deps {
		if e.launches[d].state != lnRetired {
			return false
		}
	}
	return true
}

// maskFree reports whether none of the launch's SMs is owned by a running
// launch.
func (e *engine) maskFree(ln *launchRun) bool {
	for _, sh := range ln.shards {
		if e.smBusy[sh.sm.id] >= 0 {
			return false
		}
	}
	return true
}

// claimSMs takes exclusive ownership of the launch's SMs and starts its stat
// attribution window: each shard's counters accrue to the claiming launch
// from this snapshot until the next claim of that shard (or end of run).
// Claims happen only at launch activations — deterministic, epoch-aligned
// cycles — so attribution is independent of SlackWindow.
func (e *engine) claimSMs(ln *launchRun, li int) {
	for _, sh := range ln.shards {
		id := sh.sm.id
		e.flushShardDelta(id)
		e.smBusy[id] = li
		e.smAttr[id] = li
		e.smBase[id] = *e.shStats.Shard(id)
	}
}

// flushShardDelta attributes the counters a shard accrued since its last
// snapshot to the launch that owned the window, and re-bases the snapshot.
func (e *engine) flushShardDelta(smID int) {
	li := e.smAttr[smID]
	if li < 0 {
		return
	}
	cur := *e.shStats.Shard(smID)
	d := cur
	d.Sub(&e.smBase[smID])
	e.smBase[smID] = cur
	e.launches[li].acc.Merge(&d)
}

// finalizeLaunchStats closes every open attribution window at end of run.
// Called by result() before the L1 end-of-run accounting, so per-launch stats
// cover execution windows only; end-of-run artifacts (unused-prefetch
// classification, throttle totals) remain global.
func (e *engine) finalizeLaunchStats() {
	for id := range e.smAttr {
		e.flushShardDelta(id)
	}
}

// activateEligible activates every pending launch whose dependencies have
// retired and whose SM mask is free, in App order — the deterministic
// tie-break when several launches mature at the same cycle (mirroring the
// (cycle, smID, seq) store-order discipline). With flush set (a scheduler
// activation under ChainPersistence=false) the activated launch's SMs get
// their prefetcher state cleared, scoping chain detection to one launch;
// otherwise Snake's chain tables carry over and the launch starts
// pre-trained. L1 data stays warm either way (the common driver behaviour).
func (e *engine) activateEligible(start int64, flush bool) bool {
	if e.pendingLn == 0 {
		return false
	}
	activated := false
	for i := range e.launches {
		ln := &e.launches[i]
		if ln.state != lnPending || !e.depsRetired(ln) || !e.maskFree(ln) {
			continue
		}
		e.claimSMs(ln, i)
		ln.state = lnRunning
		ln.start = start
		ln.ctaNext = 0
		for _, sh := range ln.shards {
			s := sh.sm
			s.kernel = ln.kernel
			if flush && s.pf != nil {
				s.pf.Reset()
				s.l1.SetTrained(s.pf.Trained())
			}
		}
		e.pendingLn--
		activated = true
	}
	return activated
}

// applyWakes pops matured launch-scheduler wakes due at the epoch start and
// runs an activation wave. Wakes mature only at epoch starts (run caps each
// epoch at the earliest pending wake), so activations land exactly where
// per-cycle barriers would put them. A wake whose launches turn out not yet
// eligible (SMs still busy) is harmless: every retirement with pending
// launches schedules another wake.
func (e *engine) applyWakes(start int64) {
	n := 0
	for n < len(e.wakeAt) && e.wakeAt[n] <= start {
		n++
	}
	if n == 0 {
		return
	}
	m := copy(e.wakeAt, e.wakeAt[n:])
	e.wakeAt = e.wakeAt[:m]
	if e.activateEligible(start, !e.opt.ChainPersistence) {
		e.fillSMs()
	}
}

// pushWake schedules an activation wave, keeping the queue ascending (two
// launches retiring in one epoch may produce out-of-order wake cycles).
func (e *engine) pushWake(c int64) {
	e.wakeAt = append(e.wakeAt, c)
	for i := len(e.wakeAt) - 1; i > 0 && e.wakeAt[i-1] > e.wakeAt[i]; i-- {
		e.wakeAt[i-1], e.wakeAt[i] = e.wakeAt[i], e.wakeAt[i-1]
	}
}

// moreCTAs reports whether any running launch still has undispatched CTAs —
// the gate for CTA-redispatch maturation (pending launches don't count: their
// CTAs dispatch after an activation wake, not a slot refill).
func (e *engine) moreCTAs() bool {
	for i := range e.launches {
		ln := &e.launches[i]
		if ln.state == lnRunning && ln.ctaNext < len(ln.kernel.CTAs) {
			return true
		}
	}
	return false
}

// retireScan detects launch retirements in the just-ticked epoch
// [start, end]: a running launch with every CTA dispatched and every one of
// its SMs drained retired at c* — the last sub-cycle one of its shards
// reported a CTA completion. The detection epoch always contains that
// completion (done() flips only via retireCTA, which sets the shard's ctaMask
// bit), and shard ticking is bit-identical across epoch shapes, so c* is an
// absolute cycle independent of SlackWindow.
func (e *engine) retireScan(start, end int64) {
	for li := range e.launches {
		ln := &e.launches[li]
		if ln.state != lnRunning || ln.ctaNext < len(ln.kernel.CTAs) {
			continue
		}
		done := true
		for _, sh := range ln.shards {
			if !sh.sm.done() {
				done = false
				break
			}
		}
		if !done {
			continue
		}
		last := int64(-1)
		for _, sh := range ln.shards {
			if l := sh.report.cta.lastSet(); l > last {
				last = l
			}
		}
		c := end
		if last >= 0 {
			c = start + last
		}
		ln.state = lnRetired
		ln.retire = c
		for _, sh := range ln.shards {
			e.smBusy[sh.sm.id] = -1
		}
		if e.pendingLn > 0 {
			if c+e.turn <= end {
				// Unreachable: the epoch cutter's exit lookahead is armed
				// whenever a launch is pending, so no CTA retirement can
				// occur early enough for its wake to land in its own epoch.
				e.slackConflict(c+e.turn, end)
			}
			e.pushWake(c + e.turn)
		}
	}
}
