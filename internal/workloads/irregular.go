package workloads

import "snake/internal/trace"

// Irregular / low-repetition benchmarks: MUM, NW, Histo.

// MUM reproduces MUMmerGPU's suffix-tree traversal: each step jumps to a
// data-dependent node address (pseudo-random over a large tree region) and
// then to an equally data-dependent child, consulting the query string
// sequentially between jumps. Only the query stream is predictable — every
// prefetcher's coverage is low here, including the Ideal oracle (the jump
// strides never repeat).
func MUM(sc Scale) *trace.Kernel {
	sc = sc.WithDefaults()
	const (
		treeBase  = 0x8000_0000
		treeSpan  = 64 * mb
		queryBase = 0x8800_0000
		nodeSize  = 256 // spans two cache lines
		pcBase    = 0x7000
	)
	steps := sc.Iters * 3
	k := &trace.Kernel{Name: "mum"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: treeBase + uint64(c)*8*kb}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			g := uint64(gwarp(c, w, sc.WarpsPerCTA))
			q := queryBase + g*uint64(steps)*lineBytes
			for i := 0; i < steps; i++ {
				node := irregular(treeBase, treeSpan, g*1_000_003+uint64(i))
				node = node &^ uint64(nodeSize-1)
				child := irregular(treeBase, treeSpan, g*2_000_003+uint64(i)+7)
				b.Load(pcBase+0, node, 0)  // node header (data-dependent)
				b.Load(pcBase+8, child, 0) // child node (data-dependent)
				b.Load(pcBase+16, q, 4)    // query chars (sequential)
				b.Compute(pcBase+24, 6)
				q += lineBytes
			}
			b.Store(pcBase+32, 0x8F00_0000+g*lineBytes, 4)
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+40)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// NW reproduces Needleman-Wunsch's diagonal wavefront: regular accesses
// whose pattern shifts every diagonal, so each (PC-pair, stride) repeats
// only a couple of times before changing — below Snake's three-warp
// promotion threshold most of the time. The paper singles nw out for low
// coverage "despite having regular memory access patterns ... due to the
// low number of repetitions of these patterns" (§5.1).
func NW(sc Scale) *trace.Kernel {
	sc = sc.WithDefaults()
	const (
		matBase  = 0x9000_0000
		refBase  = 0x9800_0000
		rowBytes = 8 * kb
		pcBase   = 0x8000
	)
	diags := sc.Iters
	k := &trace.Kernel{Name: "nw"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: matBase + uint64(c)*64*kb}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			// Each warp walks a different diagonal: the per-step displacement
			// depends on the diagonal index, so strides differ across warps
			// and across steps — patterns never accumulate three confirmations.
			g := gwarp(c, w, sc.WarpsPerCTA)
			p := cta.BaseAddr + uint64(w)*rowBytes
			// nw's accesses are regular but their pattern shifts with the
			// diagonal index: the north-cell offset and the step both change
			// every wavefront step, so no (PC-pair, stride) ever repeats
			// enough to train — "the low number of repetitions of these
			// patterns" (§5.1). Only the west neighbour, one line over, is a
			// stable chain link.
			for d := 0; d < diags; d++ {
				b.Load(pcBase+0, p, 4)           // nw cell
				b.Load(pcBase+8, p+lineBytes, 4) // west cell (the one stable link)
				// The north offset depends on both the warp's diagonal and
				// the wavefront step, so it never recurs.
				northOff := rowBytes + uint64(d*512+g)*lineBytes
				b.Load(pcBase+16, p+northOff, 4)
				b.Compute(pcBase+24, 8)
				b.Store(pcBase+32, p+northOff+lineBytes, 4)
				p += uint64(g%5+1)*(rowBytes+lineBytes) + uint64(d)*lineBytes // shifting stride
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+40)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// Histo reproduces the Parboil histogram kernel: a perfectly regular input
// scan (chain-friendly) feeding data-dependent bin updates (a scattered
// read-modify-write that no prefetcher covers). All warps burst their input
// loads together, producing the bursty misses and congestion stalls the
// paper highlights; covering just the input stream yields Histo's 33%
// speedup (§5.2).
func Histo(sc Scale) *trace.Kernel {
	sc = sc.WithDefaults()
	const (
		inBase  = 0xA000_0000
		binBase = 0xA800_0000
		binSpan = 8 * mb
		pcBase  = 0x9000
	)
	iters := sc.Iters * 2
	const vec = 4 // input elements read per iteration (vectorized scan)
	warpSpan := uint64(iters*vec) * lineBytes
	k := &trace.Kernel{Name: "histo"}
	for c := 0; c < sc.CTAs; c++ {
		ctaBase := uint64(inBase) + uint64(c)*uint64(sc.WarpsPerCTA)*warpSpan
		cta := trace.CTA{ID: c, BaseAddr: ctaBase}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			g := uint64(gwarp(c, w, sc.WarpsPerCTA))
			p := ctaBase + uint64(w)*warpSpan
			for i := 0; i < iters; i++ {
				// Vectorized input scan: four consecutive-line loads per
				// iteration (the inter-thread chain the input stream offers).
				for v := 0; v < vec; v++ {
					b.Load(pcBase+uint64(v)*8, p+uint64(v)*lineBytes, 4)
				}
				// Scattered bin read-modify-writes: data dependent, uncovered.
				bin := irregular(binBase, binSpan, g*7_777_777+uint64(i))
				b.Load(pcBase+40, bin, 0)
				b.Compute(pcBase+48, 4)
				b.Store(pcBase+56, bin, 0)
				p += vec * lineBytes
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+64)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}
