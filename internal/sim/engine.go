// Package sim is the cycle-level GPU memory-system simulator: SMs with warp
// schedulers and scoreboarded warps, per-SM L1 controllers (MSHRs, miss
// queues, reservation fails), a bandwidth-limited interconnect, a
// partitioned L2 and DRAM timing. It substitutes for Accel-Sim in the Snake
// reproduction; see DESIGN.md for the substitution argument.
//
// The engine is sharded on both sides of the interconnect: each SM (plus its
// warps, L1 and prefetcher) is a shard, and each L2 partition (plus its DRAM
// controller) is a memory partition — both talk across the boundary only
// through typed, cycle-stamped port queues and per-cycle work bins, and one
// goroutine ticks them in epochs whose order fixes every statistic — see
// DESIGN.md "Epoch loop".
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"snake/internal/config"
	"snake/internal/icnt"
	"snake/internal/prefetch"
	"snake/internal/profiling"
	"snake/internal/stats"
	"snake/internal/trace"
)

// Options configures a simulation run: the machine it models (Config), the
// mechanism (NewPrefetcher), and run controls that change no statistic.
type Options struct {
	Config config.GPU
	// Context, when non-nil, is polled periodically inside the cycle loop;
	// cancellation aborts the run with the context's error. A nil Context
	// runs to completion.
	Context context.Context
	// NewPrefetcher constructs the per-SM prefetcher; nil runs the baseline.
	NewPrefetcher func(smID int) prefetch.Prefetcher
	// MaxCycles aborts runaway simulations (0: defaultMaxCycles).
	MaxCycles int64
	// Deprecated: ignored; the engine is serial. Kept only because
	// perfbench/refs.go and perfbench/wide.go still set it.
	Parallelism int
	// SlackWindow is a test hook for the bounded-slack epoch length: how
	// many consecutive cycles the engine ticks between epoch merges. 0
	// (auto, what every caller outside the tests uses) and anything above
	// the config's provable bound resolve to that bound (config.SlackBound,
	// the full audit-derived horizon); 1 is the per-cycle reference the
	// slack equivalence tests compare against. Result.Stats is
	// bit-identical at every setting — message visibility is gated on the
	// config-derived slack horizon, never on the runtime epoch length.
	// Result.Slack reports the resolved parameters. See DESIGN.md
	// "Bounded-slack ticking".
	SlackWindow int
	// LatencyAudit, when non-nil, receives the minimum cross-boundary
	// latencies actually observed during the run — the empirical floor the
	// slack property test checks the config-derived bound against.
	LatencyAudit *LatencyAudit
	// PhaseProfile, when non-nil, accumulates the engine's wall-clock time
	// per epoch phase (drain, route, partitions, shards, merge) into the
	// given accumulator across the run. Profiling never changes Result (see
	// phaseClock). Not safe to share one accumulator between concurrently
	// running engines.
	PhaseProfile *profiling.Phases
}

// defaultMaxCycles is the cycle limit of a run whose Options.MaxCycles is 0.
const defaultMaxCycles = 20_000_000

// Result carries the outcome of a run.
type Result struct {
	Stats stats.Sim   // aggregated over SMs, plus global counters
	PerSM []stats.Sim // per-SM counters
	Slack SlackInfo   // resolved bounded-slack parameters the run used
}

// engine is the live simulation state: the memory side (interconnect, L2
// partitions, DRAM, in-flight message queues) plus one shard per SM, all
// owned by the one goroutine that runs it.
type engine struct {
	cfg config.GPU
	opt Options

	// kernel is the run's kernel and ctaNext its next undispatched CTA; the
	// machine below survives across runs and is reset by reinit.
	kernel  *trace.Kernel
	ctaNext int

	cycle  int64
	net    *icntNet
	parts  []*memPartition
	shards []*shard

	// partReqs are the SM→L2 ingress ports, one ring per L2 partition: fill
	// requests in flight across the request network, binned to their
	// partition at injection time (pushReq) and stamped with the arrival
	// cycle at the partition crossbar. Per-ring order is global injection
	// order restricted to that partition, which makes an epoch's due set a
	// per-ring prefix the route prefix-sum can count in O(#partitions).
	// reqsLen is the total queued across all rings.
	partReqs []icnt.Ingress[reqMsg]
	reqsLen  int
	// resps holds partition responses waiting for response-network
	// bandwidth, ordered by data-ready cycle.
	resps respHeap
	// stores is the write-through store queue, one batch per issue cycle in
	// cycle order; a store issued at cycle p becomes sendable at p + horizon.
	stores []storeBatch
	// out is what the shards' tick spans record for the epoch merge.
	out epochOut

	ageCtr   int64
	inflight int // outstanding fill requests in the memory system
	// fillCap caps inflight: FillsPerPartition × L2Partitions, fixed with
	// the config.
	fillCap int

	// inflightRel defers in-flight capacity releases: a delivered fill frees
	// its slot horizon−turnaround cycles after delivery. The pull charges
	// capacity at stamp+horizon, but the modeled injection happened at
	// stamp+turnaround; stretching the release by the same difference keeps
	// each request's occupancy window at its modeled length (injection to
	// delivery), so the fill cap binds with per-cycle-model
	// pressure instead of evaporating at wide horizons. Entries are in
	// ascending release order (deliveries are processed in cycle order).
	inflightRel []capRelease

	// Bounded-slack epoch state (DESIGN.md "Bounded-slack ticking").
	//
	// horizon is the visibility delay applied to miss-queue injection —
	// the full config.SlackBound, a pure function of the config. turn is
	// the turnaround delay applied to store sends and CTA redispatch:
	// min(horizon, TurnaroundCap), also config-pure. slackMax
	// is the runtime epoch-length cap — Options.SlackWindow resolved into
	// [1, horizon]. Statistics depend on horizon and turn only, never on
	// where epoch boundaries fall, which is what makes every SlackWindow
	// setting bit-identical.
	horizon  int64
	turn     int64
	slackMax int64
	// slackErr records the first slack conflict of the run (see
	// slackConflict); run returns it once the conflicting epoch is merged.
	slackErr   error
	slackInfo  SlackInfo // resolved slack parameters, surfaced in Result
	epochStart int64     // first sub-cycle of the epoch being ticked
	utilSnap   []float64 // per-sub-cycle response-network utilization snapshots
	// respSeq is the global arrival stamp, assigned at injection (pushReq);
	// each request's response inherits it, so heap ordering equals serial
	// arrival order no matter what order the merge pushes slots in.
	respSeq    int64
	dispatchAt []int64 // matured CTA-redispatch cycles, ascending
	minReqLat  int64   // smallest observed request-delivery latency (audit)
	minRespLat int64   // smallest observed response-delivery latency (audit)

	shStats *stats.Shards
	mem     stats.Mem         // every partition's L2 and DRAM counters
	prof    *profiling.Phases // nil unless Options.PhaseProfile is set
}

// epochOut is the engine-owned record the shards' tick spans add to, one
// entry per sub-cycle of the epoch (offset from its start). The shards tick
// one after another, so they share it without staging.
type epochOut struct {
	stores      []int32   // write-through stores issued at each sub-cycle
	cta         epochBits // sub-cycles at which some CTA completed
	retiredLast bool      // some shard retired an instruction at the last sub-cycle
}

// reset sizes the record to an epoch of span sub-cycles and clears it.
func (o *epochOut) reset(span int) {
	if cap(o.stores) < span {
		o.stores = make([]int32, span)
	} else {
		o.stores = o.stores[:span]
		clear(o.stores)
	}
	o.cta.reset((span-1)>>6 + 1)
	o.retiredLast = false
}

// Run simulates the kernel under the given options and returns aggregated
// statistics. Each call constructs a fresh engine; callers that simulate
// repeatedly should hold an Engine (or draw from a pool of them) to recycle
// the construction cost.
func Run(k *trace.Kernel, opt Options) (*Result, error) {
	var en Engine
	return en.Run(k, opt)
}

// validateRun performs Run's pre-flight checks on a kernel/options pair.
func validateRun(k *trace.Kernel, opt Options) error {
	if opt.Context != nil {
		if err := opt.Context.Err(); err != nil {
			return fmt.Errorf("sim: aborted before start: %w", err)
		}
	}
	if err := k.Validate(); err != nil {
		return err
	}
	if err := opt.Config.Validate(); err != nil {
		return err
	}
	for _, cta := range k.CTAs {
		if len(cta.Warps) > opt.Config.MaxWarpsPerSM {
			return fmt.Errorf("sim: CTA %d has %d warps, more than %d warp slots per SM",
				cta.ID, len(cta.Warps), opt.Config.MaxWarpsPerSM)
		}
	}
	return nil
}

// newEngine constructs a machine — SM shards, L2 partitions, interconnect,
// per-SM stat arena, whose shape depends only on the config — and loads the
// kernel onto it.
func newEngine(k *trace.Kernel, opt Options) *engine {
	cfg := opt.Config
	e := &engine{
		cfg:     cfg,
		fillCap: cfg.FillsPerPartition * cfg.L2Partitions,
		net:     newIcntNet(cfg),
		shStats: stats.NewShards(cfg.NumSM),
	}
	e.setOptions(opt)
	e.parts = make([]*memPartition, cfg.L2Partitions)
	for i := range e.parts {
		e.parts[i] = newMemPartition(i, cfg, &e.mem)
	}
	e.shards = make([]*shard, cfg.NumSM)
	for i := range e.shards {
		var pf prefetch.Prefetcher
		if opt.NewPrefetcher != nil {
			pf = opt.NewPrefetcher(i)
		}
		s := newSM(i, cfg, pf, e.shStats.Shard(i))
		s.env = &smEnv{eng: e, sm: s}
		e.shards[i] = newShard(s)
	}
	e.partReqs = make([]icnt.Ingress[reqMsg], cfg.L2Partitions)
	e.initSlack()
	e.load(k)
	return e
}

// setOptions installs the run's options, resolving MaxCycles.
func (e *engine) setOptions(opt Options) {
	if opt.MaxCycles <= 0 {
		opt.MaxCycles = defaultMaxCycles
	}
	e.opt = opt
}

// load installs the kernel on every SM and rewinds the CTA cursor.
func (e *engine) load(k *trace.Kernel) {
	e.kernel = k
	e.ctaNext = 0
	for _, sh := range e.shards {
		sh.sm.kernel = k
	}
}

// partOf maps a line address to its L2 partition. Interleaving is at DRAM
// row granularity so a whole row stays within one partition (preserving row
// locality), with XOR folding so power-of-two strides spread across
// partitions instead of camping on a few.
func (e *engine) partOf(lineAddr uint64) int {
	row := lineAddr / uint64(e.cfg.DRAMRowBytes)
	return int((row ^ (row >> 3) ^ (row >> 6) ^ (row >> 9)) % uint64(len(e.parts)))
}

// ctxCheckInterval is how often (in cycles) the engine polls for
// cancellation; a power of two so the check is a cheap mask.
const ctxCheckInterval = 1 << 12

// deadlockIdleCycles is how many consecutive no-progress, no-traffic cycles
// the engine tolerates before declaring a deadlock.
const deadlockIdleCycles = 1_000_000

// run executes the epoch loop. Every executed epoch — a span of up to
// slackMax consecutive cycles between two merges — has the same shape:
//
//	serial drain phase:  for each sub-cycle in order: net.tick → response
//	                     sends (with L2 installs deferred into partition
//	                     bins) → fill delivery into shard inboxes → request
//	                     injection (pull, smID order, horizon-matured heads
//	                     only, binned to the owning partition's ingress ring
//	                     and stamped with the global arrival rank at push) →
//	                     matured stores → utilization snapshot
//	route phase:         each partition gets a zero-copy view of its ring's
//	                     due prefix (planRoute)
//	tick phase:          every partition, then every shard, ticks the whole
//	                     span — partitions perform their due L2 lookups,
//	                     merges and DRAM timing, pushing each response onto
//	                     the response heap with its global arrival seq;
//	                     shards apply fills, run prefetchers, issue, and add
//	                     their stores per sub-cycle into the epoch record
//	serial merge phase:  consumed ring prefixes dropped → one store batch
//	                     queued per sub-cycle that issued stores →
//	                     CTA-finish maturation → termination / idle
//	                     bookkeeping
//
// The serial phase runs a whole epoch ahead of the ticks; that is sound
// because every tick output is invisible to the serial phase for at least
// horizon cycles (min cross-boundary latency, config-derived), and every
// epoch is at most horizon cycles long. With SlackWindow=1 the loop is
// exactly the seed's per-cycle schedule.
func (e *engine) run() error {
	e.prof = e.opt.PhaseProfile
	var clk phaseClock
	e.fillSMs()
	idle := int64(0)
	clk.start(e.prof)
	for e.cycle < e.opt.MaxCycles {
		start := e.cycle + 1
		// The lap at the top of the iteration closes the previous epoch's
		// merge phase: every continue path below re-enters here, so the
		// merge/bookkeeping tail is charged exactly once per executed epoch.
		clk.lap(profiling.PhaseMerge)
		e.applyDispatches(start)
		maxEnd := start + e.slackMax - 1
		if e.slackMax > e.turn {
			// Adaptive epoch cutter: stores and CTA retirements replay after
			// the turnaround delay, so the epoch may not extend past the
			// earliest cycle such an event could occur plus turn-1 (see
			// actBound). Windows ≤ turn are contained unconditionally.
			if t := e.actBound(start); t >= 0 {
				if lim := t + e.turn - 1; lim < maxEnd {
					maxEnd = lim
				}
			}
		}
		if maxEnd > e.opt.MaxCycles {
			maxEnd = e.opt.MaxCycles
		}
		if len(e.dispatchAt) > 0 && e.dispatchAt[0]-1 < maxEnd {
			// A matured CTA redispatch must land on an epoch start so the new
			// warps are visible to that whole epoch's ticks (and to its serial
			// phase), exactly as with per-cycle barriers.
			maxEnd = e.dispatchAt[0] - 1
		}
		end, err := e.serialPhase(start, maxEnd)
		if err != nil {
			return err
		}
		e.cycle = end
		e.epochStart = start
		clk.lap(profiling.PhaseSerialDrain)
		e.planRoute(end)
		clk.lap(profiling.PhaseSerialRoute)
		e.tickWave(start, end, &clk)
		if e.prof != nil {
			e.prof.AddEpoch(end - start + 1)
		}
		retiredLast := e.mergeEpoch(start, end)
		if e.slackErr != nil {
			return e.slackErr
		}
		if e.finished() {
			break
		}
		msgs := e.inFlightMsgs()
		switch {
		case retiredLast || msgs > 0:
			idle = 0
		case end > start:
			// A multi-cycle epoch ends at its first zero-traffic sub-cycle
			// (the serial phase cuts there), so the serial engine's idle
			// counter — reset at end-1 by the in-flight traffic — would read
			// exactly 1 here.
			idle = 1
		default:
			// Zero-traffic epochs degenerate to a single cycle, so this
			// counts per cycle and the deadlock error (if it fires) lands on
			// the same cycle per-cycle execution reports it.
			idle++
			if idle > deadlockIdleCycles {
				return errors.New("sim: deadlock: no progress and no in-flight traffic")
			}
		}
	}
	clk.lap(profiling.PhaseMerge) // close the final cycle's merge segment
	if e.cycle >= e.opt.MaxCycles {
		return fmt.Errorf("sim: exceeded MaxCycles=%d", e.opt.MaxCycles)
	}
	return nil
}

// fillSMs dispatches queued CTAs onto SMs with enough free slots, one CTA
// per SM per pass over the shards in smID order (round-robin, the
// occupancy-balancing discipline).
func (e *engine) fillSMs() {
	for {
		progress := false
		for _, sh := range e.shards {
			if e.ctaNext >= len(e.kernel.CTAs) {
				return
			}
			need := len(e.kernel.CTAs[e.ctaNext].Warps)
			if sh.sm.freeSlots() >= need {
				sh.sm.dispatchCTA(e.kernel, e.ctaNext, &e.ageCtr)
				e.ctaNext++
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// serialPhase executes the serial route phase for the sub-cycles
// [start, maxEnd] in order and returns the epoch's actual end: maxEnd, or
// the first sub-cycle at which no cross-boundary message remains in flight.
// Cutting there keeps the executed-cycle set identical to per-cycle
// execution — the kernel-finish cycle is always a zero-traffic cycle, so the
// epoch can never tick past it — at the cost of degenerating to one-cycle
// epochs during compute-only stretches.
//
// Everything here reads only pre-epoch state plus this phase's own earlier
// sub-cycles: tick outputs are invisible for at least horizon cycles (miss
// queue and store stamps mature at +horizon, partition responses are ready
// no earlier than +L2 latency ≥ +horizon), and maxEnd < start + horizon.
func (e *engine) serialPhase(start, maxEnd int64) (int64, error) {
	e.utilSnap = e.utilSnap[:0]
	for c := start; ; c++ {
		if e.opt.Context != nil && c&(ctxCheckInterval-1) == 0 {
			if err := e.opt.Context.Err(); err != nil {
				return 0, fmt.Errorf("sim: aborted at cycle %d: %w", c, err)
			}
		}
		e.net.tick(c)
		e.drainResponses(c)
		e.deliverFills(c)
		e.releaseInflight(c)
		e.drainMissQueues(c)
		e.drainStores(c)
		if c == start {
			// Hoisted first-sub-cycle prefetch drain: entries drained at c
			// are stamped c-1 (cache.L1.DrainPrefetch keeps their per-cycle
			// injection eligibility), so a drain inside the tick span's
			// first sub-cycle would mature at start-1+horizon — inside a
			// full-horizon epoch. Running that one drain here, serially,
			// after this sub-cycle's injection pull — the same
			// drain-after-pull order per-cycle execution has — removes the
			// early stamp from the span and lets epochs reach the full
			// horizon. Drains at later sub-cycles mature at ≥ start+horizon
			// and stay tick-side.
			for _, sh := range e.shards {
				// The drain's Full check must see this sub-cycle's occupancy:
				// advance the residency clock to start with zero credit (every
				// entry pulled in earlier epochs has expired by now — pulls
				// happen at stamp+horizon ≥ stamp+turnaround).
				sh.sm.l1.SetMissQueueClock(c, 0)
				sh.sm.l1.DrainPrefetch(c)
				sh.predrained = true
			}
		}
		e.utilSnap = append(e.utilSnap, e.net.utilization())
		if c >= maxEnd || e.predictedMsgs() == 0 {
			return c, nil
		}
	}
}

// predictedMsgs is the serial phase's view of inFlightMsgs at the end of a
// sub-cycle: requests crossing the network or queued for this epoch's
// partition ticks (both live in the partition ingress rings until the epoch
// merge consumes them), responses awaiting bandwidth, and fills not yet
// delivered. It equals exactly what inFlightMsgs reports after the cycle's
// ticks and merge under per-cycle barriers: ticks consume the whole inbox
// (so delivered-but-unconsumed fills don't count), and tick outputs (miss
// queue entries, stores) are not messages until the serial phase injects
// them.
func (e *engine) predictedMsgs() int {
	n := e.reqsLen + len(e.resps)
	for _, sh := range e.shards {
		n += sh.fills.Len()
	}
	return n
}

// pushReq injects a fill request into the memory side: the request is binned
// to its owning partition's ingress ring right here, at injection time, and
// stamped with the next global arrival rank (respSeq). Injection order is
// the deterministic smID-order pull of drainMissQueues, and arrival stamps
// are non-decreasing in that order (network sends serialize), so each ring
// is the global arrival order restricted to its partition — which is what
// lets planRoute locate an epoch's due set as a per-ring prefix instead of
// walking requests one by one.
func (e *engine) pushReq(arriveAt int64, req reqMsg) {
	e.respSeq++
	req.seq = e.respSeq
	e.partReqs[e.partOf(req.lineAddr)].Push(arriveAt, req)
	e.reqsLen++
}

// planRoute is the route phase, run once per epoch after the serial drain:
// each partition gets a zero-copy view of its ring's due prefix (every entry
// stamped ≤ end), which is that partition's own arrival order — all that
// fixes its L2/DRAM access sequence. The order partitions then push their
// responses in does not matter: the response heap's pop sequence is a pure
// function of the (readyAt, seq) key set, and every response carries the
// global arrival seq its request was stamped with at injection (respHeap).
// Returns the epoch's total due-request count.
func (e *engine) planRoute(end int64) int {
	total := 0
	for i, p := range e.parts {
		a, b := e.partReqs[i].DueView(end)
		p.dueA, p.dueB = a, b
		p.dueN = len(a) + len(b)
		total += p.dueN
	}
	return total
}

// drainResponses sends ready memory responses back over the interconnect at
// sub-cycle c, stamping each with its delivery cycle and queueing it on the
// destination shard's ingress port. The L2 install for each shipped line is
// deferred into the owning partition's completes bin, applied at the same
// sub-cycle of its tick span (after that sub-cycle's accesses — the same
// relative order the serial engine had, see memPartition.tickSpan). Only
// pre-epoch responses can be due: in-epoch ones are ready past the epoch end.
func (e *engine) drainResponses(c int64) {
	lineBytes := e.cfg.Unified.LineSize
	for {
		r, ok := e.resps.peek()
		if !ok || r.readyAt > c {
			return
		}
		deliverAt, sent := e.net.trySendResp(lineBytes)
		if !sent {
			return
		}
		e.resps.pop()
		p := e.parts[r.part]
		p.completes = append(p.completes, partFill{lineAddr: r.lineAddr, cycle: c})
		e.shards[r.sm].fills.Push(deliverAt, fillMsg{lineAddr: r.lineAddr, prefetch: r.prefetch})
		if d := deliverAt - c; d < e.minRespLat {
			e.minRespLat = d
		}
	}
}

// capRelease is one deferred in-flight capacity release (see inflightRel).
type capRelease struct {
	at int64
	n  int
}

// deliverFills moves fills due at sub-cycle c into each shard's inbox (smID
// order) and schedules their in-flight capacity release: immediately when
// horizon equals the turnaround, deferred by the difference otherwise (see
// inflightRel).
func (e *engine) deliverFills(c int64) {
	n := 0
	for _, sh := range e.shards {
		n += sh.deliverDue(c)
	}
	if n == 0 {
		return
	}
	if d := e.horizon - e.turn; d > 0 {
		e.inflightRel = append(e.inflightRel, capRelease{at: c + d, n: n})
	} else {
		e.inflight -= n
	}
}

// releaseInflight applies the deferred capacity releases due at or before
// sub-cycle c, compacting the queue in place so its backing array is reused.
func (e *engine) releaseInflight(c int64) {
	n := 0
	for n < len(e.inflightRel) && e.inflightRel[n].at <= c {
		e.inflight -= e.inflightRel[n].n
		n++
	}
	if n > 0 {
		m := copy(e.inflightRel, e.inflightRel[n:])
		e.inflightRel = e.inflightRel[:m]
	}
}

// missInjectPerSM is how many outgoing fill requests each SM may inject into
// the request network per cycle.
const missInjectPerSM = 3

// requestBytes and storeBytes are the request-network packet sizes of a fill
// request and of a write-through store.
const (
	requestBytes = 8
	storeBytes   = 32
)

// drainMissQueues pulls outgoing fill requests from each shard's request
// port at sub-cycle c, up to missInjectPerSM per SM per cycle, subject to
// the in-flight cap (downstream queue capacity). Only heads that matured
// past the slack horizon are candidates: a request staged at cycle p is
// injectable from p + horizon, so requests staged by the current epoch's
// ticks are never pulled by its own serial phase. The pull order — shards in
// smID order — is the deterministic merge order of the SM→memory request
// stream. Each pull records the entry's residency expiry in the shard's
// schedule (shard.popReq), which the tick span replays as phantom
// miss-queue occupancy.
func (e *engine) drainMissQueues(c int64) {
	for _, sh := range e.shards {
		for k := 0; k < missInjectPerSM; k++ {
			if e.inflight >= e.fillCap {
				return
			}
			if !sh.peekReq(c, e.horizon) {
				break
			}
			deliverAt, sent := e.net.trySendReq(requestBytes)
			if !sent {
				return
			}
			req, _ := sh.popReq()
			e.inflight++
			// The horizon is modeled as the front segment of the network
			// traversal: the request spent horizon-1 cycles of its interconnect
			// latency maturing in the miss queue, so its remaining flight is
			// that much shorter and the end-to-end inject→arrival latency
			// equals the per-cycle engine's. Sound because IcntLatency ≥
			// horizon (the slack audit's interconnect term), so arrival stays
			// strictly in the future.
			arriveAt := deliverAt - (e.horizon - 1)
			e.pushReq(arriveAt, req)
			if d := arriveAt - c; d < e.minReqLat {
				e.minReqLat = d
			}
		}
	}
}

// drainStores sends matured write-through store traffic at low priority: a
// store issued during a tick at cycle p crosses the network no earlier than
// p + horizon — the same visibility delay as fill requests, so the two
// request-direction traffic classes stay phase-aligned and their bandwidth
// contention matches the per-cycle model's (both shifted uniformly; the
// network's budget is time-invariant). Fire-and-forget: nothing downstream
// observes a store's send cycle, so the shift is latency-neutral, and the
// queue holds only a count per issue cycle. Batches are in cycle order, so
// maturity is a prefix property; a batch the bandwidth cuts short keeps
// its remaining count at the head for the next cycle.
func (e *engine) drainStores(c int64) {
	n := 0
	for n < len(e.stores) && e.stores[n].cycle+e.horizon <= c {
		b := &e.stores[n]
		for ; b.n > 0; b.n-- {
			if _, sent := e.net.trySendReq(storeBytes); !sent {
				break
			}
		}
		if b.n > 0 {
			break
		}
		n++
	}
	if n > 0 {
		// Compact in place rather than re-slicing (e.stores = e.stores[n:]):
		// re-slicing strands the consumed prefix of the backing array, so
		// append would grow a fresh array every time the queue cycled through
		// its capacity instead of reusing the existing one.
		m := copy(e.stores, e.stores[n:])
		e.stores = e.stores[:m]
	}
}

// tickWave runs the tick phase of the epoch: every memory partition ticks
// the sub-cycles [start, end] (draining its request and complete bins onto
// the response heap), then every shard does (applying fills and issuing,
// into the epoch record). Partitions and shards touch disjoint state, so the
// order between the two loops changes nothing; the profiling lap between
// them separates their wall clocks.
func (e *engine) tickWave(start, end int64, clk *phaseClock) {
	for _, p := range e.parts {
		if at := p.tickSpan(start, end, &e.resps); at >= 0 {
			e.slackConflict(at, end)
		}
	}
	clk.lap(profiling.PhaseMemPartitions)
	e.out.reset(int(end-start) + 1)
	for _, sh := range e.shards {
		sh.tickSpan(start, end, &e.out)
	}
	clk.lap(profiling.PhaseShards)
}

// mergeEpoch performs the serial merges closing the epoch [start, end]: the
// consumed due prefixes are dropped from the partition ingress rings, each
// sub-cycle's store count is queued as one batch, and CTA finishes are
// queued for redispatch at +turnaround. Returns whether any shard retired an
// instruction at the final sub-cycle — the only per-cycle retire bit the
// idle bookkeeping still needs (earlier sub-cycles all carried in-flight
// traffic, which resets the counter regardless).
func (e *engine) mergeEpoch(start, end int64) bool {
	for i, p := range e.parts {
		if p.dueN > 0 {
			e.partReqs[i].Drop(p.dueN)
			e.reqsLen -= p.dueN
			p.dueN = 0
		}
	}

	for i, n := range e.out.stores {
		if n == 0 {
			continue
		}
		c := start + int64(i)
		if m := c + e.horizon; m <= end {
			// Provably unreachable: stores mature after the full horizon and
			// epochs never span more than the horizon, so no store can
			// mature inside its own epoch.
			e.slackConflict(m, end)
		}
		e.stores = append(e.stores, storeBatch{cycle: c, n: n})
	}
	for _, sh := range e.shards {
		sh.mqExpiry = sh.mqExpiry[:0]
	}

	// CTA maturation: a CTA finishing at sub-cycle f frees its warp slots for
	// redispatch at f + turnaround — an epoch start by construction (run
	// caps epochs at the earliest matured dispatch), so the refill is
	// visible to a whole epoch exactly as under per-cycle barriers. Skipped
	// once every CTA is dispatched: maturation would only cap future epochs
	// for a guaranteed no-op fillSMs. The shards' finishes share one bitset,
	// so each marked sub-cycle is exactly one due dispatch event (at most
	// one per sub-cycle, as with per-cycle barriers).
	if e.ctaNext < len(e.kernel.CTAs) {
		for w, bitsW := range e.out.cta {
			for bitsW != 0 {
				i := int64(w)<<6 + int64(bits.TrailingZeros64(bitsW))
				bitsW &= bitsW - 1
				at := start + i + e.turn
				if at <= end {
					// Unreachable: the epoch cutter's exit lookahead
					// is armed whenever undispatched CTAs remain.
					e.slackConflict(at, end)
				}
				e.dispatchAt = append(e.dispatchAt, at)
			}
		}
	}
	return e.out.retiredLast
}

// applyDispatches pops matured CTA-redispatch events due at the epoch start
// and refills freed SM slots. Events mature only at epoch starts (run caps
// each epoch at the earliest pending event), so the pop never lands
// mid-epoch.
func (e *engine) applyDispatches(start int64) {
	n := 0
	for n < len(e.dispatchAt) && e.dispatchAt[n] <= start {
		n++
	}
	if n > 0 {
		m := copy(e.dispatchAt, e.dispatchAt[n:])
		e.dispatchAt = e.dispatchAt[:m]
		e.fillSMs()
	}
}

// inFlightMsgs counts cross-boundary messages in flight: requests crossing
// to the L2 side, responses awaiting bandwidth, and fills not yet consumed
// by their shard.
func (e *engine) inFlightMsgs() int {
	n := e.reqsLen + len(e.resps)
	for _, sh := range e.shards {
		n += sh.pendingFills()
	}
	return n
}

// finished reports whether every CTA has been dispatched, all SMs have
// drained and no traffic is in flight.
func (e *engine) finished() bool {
	if e.ctaNext < len(e.kernel.CTAs) {
		return false
	}
	for _, sh := range e.shards {
		if !sh.sm.done() {
			return false
		}
	}
	return e.inFlightMsgs() == 0
}

// throttleReporter is implemented by prefetchers that track their halted
// cycles (Snake).
type throttleReporter interface {
	ThrottleCycles() int64
}

// result aggregates statistics (call once, after run).
func (e *engine) result() *Result {
	for i, sh := range e.shards {
		sh.sm.l1.FinishRun()
		if tr, ok := sh.sm.pf.(throttleReporter); ok {
			e.shStats.Shard(i).Pf.ThrottleCycles = tr.ThrottleCycles()
		}
	}
	// Copy the per-SM counters out of the shard accumulators: the Result must
	// stay valid after the engine is recycled for another run, which resets
	// the accumulators in place.
	perSM := make([]stats.Sim, e.shStats.Len())
	copy(perSM, e.shStats.Slice())
	for i := range perSM {
		perSM[i].Cycles = e.cycle
	}
	res := &Result{Stats: e.shStats.Total(), PerSM: perSM, Slack: e.slackInfo}
	res.Stats.Cycles = e.cycle
	res.Stats.IcntBytes = e.net.totalBytes()
	res.Stats.IcntPeakBytes = e.net.peakBytes(e.cycle)
	// Memory-side counters come from the engine's one block; the per-SM
	// blocks hold zeros for these fields.
	res.Stats.L2Hits += e.mem.L2Hits
	res.Stats.L2Misses += e.mem.L2Misses
	res.Stats.L2Merges += e.mem.L2Merges
	res.Stats.DRAMReads += e.mem.DRAMReads
	res.Stats.DRAMRowHits += e.mem.DRAMRowHits
	res.Stats.DRAMRowMisses += e.mem.DRAMRowMisses
	if a := e.opt.LatencyAudit; a != nil {
		a.MinReqDelivery = e.minReqLat
		a.MinRespDelivery = e.minRespLat
		a.MinL2Response = latencyUnobserved
		for _, p := range e.parts {
			if p.minRespLat < a.MinL2Response {
				a.MinL2Response = p.minRespLat
			}
		}
	}
	return res
}

// smEnv adapts engine state to the prefetch.Env interface for one SM. The
// engine-side reads are of memory-side state that only the drain and merge
// phases mutate, so a shard's tick span sees it as of the epoch's drain.
type smEnv struct {
	eng *engine
	sm  *sm
}

// Utilization implements prefetch.Env. During a tick span the live network
// counters are an epoch ahead of the shard's sub-cycle, so the read comes
// from the per-sub-cycle snapshots the serial phase recorded — each exactly
// the value a per-cycle barrier schedule would have exposed at that cycle.
// (Outside a normal epoch — white-box tests ticking shards directly — it
// falls back to the live value.)
func (v *smEnv) Utilization() float64 {
	if i := v.sm.nowCycle - v.eng.epochStart; i >= 0 && i < int64(len(v.eng.utilSnap)) {
		return v.eng.utilSnap[i]
	}
	return v.eng.net.utilization()
}

// FreeFraction implements prefetch.Env.
func (v *smEnv) FreeFraction() float64 { return v.sm.l1.FreeFraction() }

// ConfineL1 implements prefetch.Env.
func (v *smEnv) ConfineL1(until int64) { v.sm.l1.Confine(until) }
