package workloads

import "snake/internal/trace"

// Stencil benchmarks: LPS, Hotspot, Srad. Stencils are where chains of
// strides are richest — each iteration touches several neighbours at fixed
// offsets from a moving index, so consecutive load PCs have stable deltas
// even when the per-PC behaviour is hard to train.

// LPS reproduces the 3D Laplace solver of Figure 7: per iteration of the
// k-loop a warp loads u1[ind] and u1[ind+KOFF] and stores u1[ind-KOFF] and
// u1[ind], with ind advancing by KOFF per iteration.
//
// Structure: an inter-thread chain PC1→PC2 with delta KOFF; intra-warp
// strides of KOFF on both PCs (deep loop: intra-warp trainable); fixed
// inter-warp strides within a CTA; fixed CTA base stride. Every mechanism
// gets some coverage here; Snake trains faster (3 warps once, not 3
// iterations per warp per PC) and adds the chain.
func LPS(sc Scale) *trace.Kernel {
	const (
		u1Base   = 0x1000_0000
		koff     = 64 * kb // (BLOCK_X+2)*(BLOCK_Y+2) plane, in bytes
		warpSpan = 2 * lineBytes
		pcBase   = 0x1000
	)
	nz := sc.Iters // k-loop depth
	ctaSpan := uint64(sc.WarpsPerCTA * warpSpan)
	k := &trace.Kernel{Name: "lps"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: u1Base + uint64(c)*ctaSpan}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			ind := cta.BaseAddr + uint64(w*warpSpan) + koff
			for kk := 0; kk < nz; kk++ {
				b.Compute(pcBase+0, 8)
				b.Load(pcBase+8, ind, 4)       // u1[ind]
				b.Load(pcBase+16, ind+koff, 4) // u1[ind+KOFF]
				b.Store(pcBase+24, ind-koff, 4)
				b.Store(pcBase+32, ind, 4)
				b.Compute(pcBase+40, 6)
				ind += koff
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+48)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// Hotspot reproduces the Rodinia 2D thermal stencil: per row a warp loads
// five temperature neighbours and the power cell, all at fixed offsets from
// a moving index, then stores the result. The pyramid structure keeps the
// row loop shallow, which starves intra-warp training (2 of its ~R
// iterations are spent training per PC per warp); Snake's cross-warp chain
// training covers the same loads almost immediately, which is exactly the
// coverage gap the paper's Figure 16 shows.
func Hotspot(sc Scale) *trace.Kernel {
	const (
		tempBase  = 0x2000_0000
		powerBase = 0x2800_0000
		outBase   = 0x3000_0000
		rowBytes  = 32 * kb
		warpSpan  = 2 * lineBytes
		pcBase    = 0x2000
	)
	rows := sc.Iters / 2
	if rows < 3 {
		rows = 3
	}
	ctaSpan := uint64(sc.WarpsPerCTA * warpSpan)
	k := &trace.Kernel{Name: "hotspot"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: tempBase + uint64(c)*ctaSpan}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			ind := cta.BaseAddr + uint64(w*warpSpan) + rowBytes
			for r := 0; r < rows; r++ {
				b.Load(pcBase+0, ind-rowBytes, 4)              // temp[ind-W]
				b.Load(pcBase+8, ind-lineBytes, 4)             // temp[ind-1] (prev line)
				b.Load(pcBase+16, ind, 4)                      // temp[ind]
				b.Load(pcBase+24, ind+lineBytes, 4)            // temp[ind+1] (next line)
				b.Load(pcBase+32, ind+rowBytes, 4)             // temp[ind+W]
				b.Load(pcBase+40, powerBase+(ind-tempBase), 4) // power[ind]
				b.Compute(pcBase+48, 10)
				b.Store(pcBase+56, outBase+(ind-tempBase), 4)
				ind += rowBytes
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+64)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// Srad reproduces the Rodinia speckle-reducing diffusion kernel: a stencil
// phase over four neighbours followed by a coefficient phase, separated by a
// barrier. All warps issue their bursts together, which congests the miss
// queue — the paper notes Srad's high baseline hit rate but "bursty misses,
// leading to resource congestion" that Snake's precise prefetching relieves
// (§5.2).
func Srad(sc Scale) *trace.Kernel {
	const (
		imgBase  = 0x4000_0000
		cBase    = 0x4800_0000
		rowBytes = 16 * kb
		warpSpan = lineBytes
		pcBase   = 0x3000
	)
	rows := sc.Iters / 2
	if rows < 3 {
		rows = 3
	}
	ctaSpan := uint64(sc.WarpsPerCTA * warpSpan * 4)
	k := &trace.Kernel{Name: "srad"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: imgBase + uint64(c)*ctaSpan}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			ind := cta.BaseAddr + uint64(w*warpSpan*4) + rowBytes
			// Phase 1: gradient stencil (chain of four neighbour loads).
			for r := 0; r < rows; r++ {
				b.Load(pcBase+0, ind-rowBytes, 4)
				b.Load(pcBase+8, ind+rowBytes, 4)
				b.Load(pcBase+16, ind-lineBytes, 4)
				b.Load(pcBase+24, ind+lineBytes, 4)
				b.Compute(pcBase+32, 8)
				b.Store(pcBase+40, cBase+(ind-imgBase), 4)
				ind += rowBytes
			}
			b.Barrier(pcBase + 48)
			// Phase 2: coefficient update reads back the stored c values.
			ind = cta.BaseAddr + uint64(w*warpSpan*4) + rowBytes
			for r := 0; r < rows; r++ {
				b.Load(pcBase+56, cBase+(ind-imgBase), 4)
				b.Load(pcBase+64, cBase+(ind-imgBase)+rowBytes, 4)
				b.Compute(pcBase+72, 6)
				b.Store(pcBase+80, ind, 4)
				ind += rowBytes
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+88)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// withID stamps the warp's index within its CTA.
func withID(id int, w trace.WarpProgram) trace.WarpProgram {
	w.IDInCTA = id
	return w
}
