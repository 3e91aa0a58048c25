package sim

// This file defines the typed, cycle-stamped messages that cross the
// SM-shard / memory-side boundary, and the per-shard egress buffer they are
// staged in. After the port refactor these messages are the ONLY way state
// moves across the boundary:
//
//	SM shard  --reqMsg-->   memory side   (fill requests, pulled from the
//	                                       shard's request port in the
//	                                       drain phase, in smID order)
//	SM shard  --storeMsg--> memory side   (write-through stores, staged in
//	                                       the shard's egress during its
//	                                       tick, merged at the epoch merge
//	                                       in (smID, seq) order)
//	memory side --fillMsg--> SM shard     (line fills, pushed into the
//	                                       shard's cycle-stamped ingress
//	                                       queue, delivered when due)
//
// Everything else an SM owns (warps, L1, MSHRs, prefetcher, statistics) is
// shard-private, which is what lets a shard tick a whole epoch on its own;
// see DESIGN.md "Epoch loop".

// fillMsg is a completed memory response in flight toward an SM's L1. It is
// delivered through the shard's icnt.Ingress queue, whose stamp carries the
// delivery cycle.
type fillMsg struct {
	lineAddr uint64
	prefetch bool
}

// reqMsg is a fill request in flight toward the L2 side. Its ingress stamp
// carries the arrival cycle at the partition crossbar; seq is the request's
// global arrival rank, assigned by the engine at injection time (strictly
// increasing across all partitions). The computed response inherits seq, so
// the epoch merge can push responses in any partition-major order and the
// response heap still replays them in exact serial arrival order — which is
// what lets routing bin requests per partition at injection instead of in a
// serial per-epoch walk.
type reqMsg struct {
	sm       int
	seq      int64
	lineAddr uint64
	prefetch bool
}

// storeMsg is one write-through store packet staged by a shard. cycle is the
// sub-cycle it was issued at and seq the shard-local stamp assigned at issue;
// the epoch merge orders the global store queue by (cycle, smID, seq), which
// reproduces per-cycle barrier merging exactly. The engine may not send a
// store before cycle + slack horizon: the visibility delay that makes the
// epoch-deferred merge invisible (see DESIGN.md "Bounded-slack ticking").
type storeMsg struct {
	sm    int
	seq   int64
	addr  uint64
	cycle int64
}

// egress buffers one shard's outbound messages for the epoch being ticked.
// The shard appends during its tick span; the engine drains it at the epoch
// merge and it must be empty before the next tick
// span starts. Entries are naturally in (cycle, seq) order: sub-cycles run
// forward and seq only grows.
type egress struct {
	sm     int
	seq    int64 // monotonically increasing per-shard message stamp
	stores []storeMsg
}

// addStore stages a write-through store packet issued at the given sub-cycle.
func (e *egress) addStore(addr uint64, cycle int64) {
	e.seq++
	e.stores = append(e.stores, storeMsg{sm: e.sm, seq: e.seq, addr: addr, cycle: cycle})
}
