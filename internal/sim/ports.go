package sim

// This file defines the typed, cycle-stamped messages that cross the
// SM-shard / memory-side boundary:
//
//	SM shard  --reqMsg-->   memory side   (fill requests, pulled from the
//	                                       shard's request port in the
//	                                       drain phase, in smID order)
//	memory side --fillMsg--> SM shard     (line fills, pushed into the
//	                                       shard's cycle-stamped ingress
//	                                       queue, delivered when due)
//
// Nothing downstream reads a write-through store's address or SM, so stores
// cross as a count: each shard's tick adds the stores it issued at each
// sub-cycle into the engine's per-epoch count (engine.epochOut), and the
// merge queues one (cycle, n) batch per sub-cycle for drainStores.
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
