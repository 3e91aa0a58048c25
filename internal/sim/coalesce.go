package sim

// Memory coalescing: a warp-level load touches WarpSize thread addresses
// base + t*stride; the coalescer merges them into the minimal set of
// distinct cache lines. A unit-stride (or broadcast) access coalesces into
// one line; divergent accesses split into several transactions that are
// issued and tracked independently — "handling divergent memory access
// patterns" is one of the GPU-specific challenges §1 lists for chain
// prefetching.
//
// The trace carries the per-thread stride (trace.Static.Stride); workloads
// use 0 (broadcast) or 4 bytes (perfectly coalesced) for regular kernels
// and larger strides for divergent ones.

// coalesce appends the distinct line base addresses of a warp access to
// dst and returns it. Lines are emitted in ascending-thread order without
// duplicates (threads hitting the same line merge).
func coalesce(dst []uint64, base uint64, stride int32, warpSize, lineSize int) []uint64 {
	mask := ^(uint64(lineSize) - 1)
	if stride == 0 {
		return append(dst, base&mask)
	}
	last := uint64(0)
	have := false
	for t := 0; t < warpSize; t++ {
		addr := uint64(int64(base) + int64(stride)*int64(t))
		line := addr & mask
		if have && line == last {
			continue
		}
		// A divergent pattern may revisit an earlier line (negative or
		// wrapping strides); a linear scan keeps the set exact.
		dup := false
		for _, l := range dst {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, line)
		}
		last, have = line, true
	}
	return dst
}

// transactionsFor returns how many line transactions the access generates.
func transactionsFor(base uint64, stride int32, warpSize, lineSize int) int {
	return len(coalesce(nil, base, stride, warpSize, lineSize))
}
