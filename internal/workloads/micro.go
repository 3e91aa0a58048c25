package workloads

import "snake/internal/trace"

// Microbenchmarks with precisely known properties, used by tests and the
// quickstart example.

// StreamMicro builds a kernel in which every warp streams a private region
// with a fixed per-iteration stride and a two-PC chain: load A[i], load
// B[i] (= A[i] + gap), compute, advance. Everything about it is trainable.
func StreamMicro(sc Scale, stepBytes int) *trace.Kernel {
	const (
		base   = 0xE000_0000
		gap    = 8 * mb
		pcBase = 0xD000
	)
	if stepBytes <= 0 {
		stepBytes = 2 * lineBytes
	}
	iters := sc.Iters * 4
	warpSpan := uint64(iters * stepBytes)
	k := &trace.Kernel{Name: "stream-micro"}
	for c := 0; c < sc.CTAs; c++ {
		ctaBase := uint64(base) + uint64(c)*uint64(sc.WarpsPerCTA)*warpSpan
		cta := trace.CTA{ID: c, BaseAddr: ctaBase}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			p := ctaBase + uint64(w)*warpSpan
			for i := 0; i < iters; i++ {
				b.Load(pcBase+0, p, 4)
				b.Load(pcBase+8, p+gap, 4)
				b.Compute(pcBase+16, 4)
				p += uint64(stepBytes)
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+24)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// RandomMicro builds a kernel whose loads are uniformly pseudo-random: no
// prefetcher (including the Ideal oracle) should cover it.
func RandomMicro(sc Scale) *trace.Kernel {
	const (
		base   = 0xE800_0000
		span   = 256 * mb
		pcBase = 0xD800
	)
	iters := sc.Iters * 4
	k := &trace.Kernel{Name: "random-micro"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: base + uint64(c)*4*kb}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			g := uint64(gwarp(c, w, sc.WarpsPerCTA))
			for i := 0; i < iters; i++ {
				b.Load(pcBase+0, irregular(base, span, g*2_000_003+uint64(i)), 0)
				b.Compute(pcBase+8, 4)
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+16)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// DivergenceMicro builds a kernel whose loads use the given per-thread
// stride: 4 bytes is perfectly coalesced (one transaction per warp access),
// larger strides split each access into multiple line transactions — the
// divergent pattern §1 lists among the GPU-specific prefetching challenges.
func DivergenceMicro(sc Scale, threadStride int32) *trace.Kernel {
	const (
		base   = 0xEC00_0000
		pcBase = 0xDC00
	)
	iters := sc.Iters * 4
	footprint := uint64(iters) * uint64(threadStride) * 32
	k := &trace.Kernel{Name: "divergence-micro"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: base + uint64(c)*uint64(sc.WarpsPerCTA)*footprint}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			p := cta.BaseAddr + uint64(w)*footprint
			for i := 0; i < iters; i++ {
				b.Load(pcBase+0, p, threadStride)
				b.Compute(pcBase+8, 4)
				p += uint64(threadStride) * 32
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+16)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// ChainOnlyMicro builds a kernel whose chain deltas are fixed but whose
// per-PC strides vary every iteration (the LUD-style pattern): only a
// chain-based prefetcher can cover the chain body.
func ChainOnlyMicro(sc Scale) *trace.Kernel {
	const (
		base   = 0xF000_0000
		delta1 = 16 * kb
		delta2 = 32 * kb
		pcBase = 0xE000
	)
	iters := sc.Iters * 2
	k := &trace.Kernel{Name: "chain-micro"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: base + uint64(c)*mb}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			p := cta.BaseAddr + uint64(w)*4*lineBytes
			for i := 0; i < iters; i++ {
				b.Load(pcBase+0, p, 4)         // root: irregular per-PC stride
				b.Load(pcBase+8, p+delta1, 4)  // chain member 1
				b.Load(pcBase+16, p+delta2, 4) // chain member 2
				b.Compute(pcBase+24, 6)
				p += uint64(i+1) * 3 * lineBytes // growing step: no fixed per-PC stride
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+32)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}
