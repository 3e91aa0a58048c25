package workloads

import "snake/internal/trace"

// Linear-streaming benchmarks: CP, LIB, MRQ.

// CP reproduces the ISPASS Coulombic Potential kernel: each warp iterates
// over a block of atom records, reading the four coordinates of each atom at
// 32-byte spacing (an in-line chain: four loads per line, one miss then
// three hits) with heavy floating-point work per atom. Deep, perfectly
// regular loop — every stride mechanism trains; the application is partially
// compute-bound so the absolute gain is moderate.
func CP(sc Scale) *trace.Kernel {
	sc = sc.WithDefaults()
	const (
		atomBase = 0x5000_0000
		atomRec  = 32 // bytes per atom record
		pcBase   = 0x4000
	)
	iters := sc.Iters * 3
	recsPerWarp := uint64(iters)
	k := &trace.Kernel{Name: "cp"}
	for c := 0; c < sc.CTAs; c++ {
		ctaBase := atomBase + uint64(c)*uint64(sc.WarpsPerCTA)*recsPerWarp*4*atomRec
		cta := trace.CTA{ID: c, BaseAddr: ctaBase}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			p := ctaBase + uint64(w)*recsPerWarp*4*atomRec
			for i := 0; i < iters; i++ {
				b.Load(pcBase+0, p, 0)            // atom.x (broadcast within warp)
				b.Load(pcBase+8, p+atomRec, 0)    // atom.y
				b.Load(pcBase+16, p+2*atomRec, 0) // atom.z
				b.Load(pcBase+24, p+3*atomRec, 0) // atom.q
				b.Compute(pcBase+32, 36)
				p += 4 * atomRec
			}
			b.Store(pcBase+40, 0x5F00_0000+uint64(gwarp(c, w, sc.WarpsPerCTA))*lineBytes, 4)
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+48)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// LIB reproduces the ISPASS LIBOR Monte Carlo kernel: each warp walks three
// large per-warp arrays (forward rates, volatilities, accruals) with a
// 512-byte step — far larger than a cache line, so the baseline gets no
// reuse at all and the L1 hit rate collapses. The paper reports LIB as
// Snake's largest win ("increases the L1 data cache hit rate by 10×",
// §5.2): all three PCs chain with fixed inter-array deltas and a fixed
// per-iteration stride, so a trained prefetcher converts every miss.
func LIB(sc Scale) *trace.Kernel {
	sc = sc.WithDefaults()
	const (
		base   = 0x6000_0000
		arrGap = 16 * mb // delta between the three arrays
		step   = 512     // per-iteration stride (> line: zero reuse)
		pcBase = 0x5000
	)
	iters := sc.Iters * 8
	warpSpan := uint64(iters * step)
	k := &trace.Kernel{Name: "lib"}
	for c := 0; c < sc.CTAs; c++ {
		ctaBase := uint64(base) + uint64(c)*uint64(sc.WarpsPerCTA)*warpSpan
		cta := trace.CTA{ID: c, BaseAddr: ctaBase}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			p := ctaBase + uint64(w)*warpSpan
			for i := 0; i < iters; i++ {
				b.Load(pcBase+0, p, 4)           // L[i]
				b.Load(pcBase+8, p+arrGap, 4)    // lambda[i]
				b.Load(pcBase+16, p+2*arrGap, 4) // accrual[i]
				b.Compute(pcBase+24, 8)
				b.Store(pcBase+32, p+3*arrGap, 4)
				p += step
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+40)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// MRQ reproduces the Parboil mri-q kernel: a deep loop over k-space samples
// shared by all warps (broadcast reuse) with substantial trigonometric work
// per sample. Memory traffic is light relative to compute, so prefetching
// helps latency but the end-to-end gain is bounded by the compute — the
// smallest bars in the paper's Figure 18.
func MRQ(sc Scale) *trace.Kernel {
	sc = sc.WithDefaults()
	const (
		kBase  = 0x7000_0000
		xBase  = 0x7400_0000
		rec    = 16
		pcBase = 0x6000
	)
	iters := sc.Iters * 4
	k := &trace.Kernel{Name: "mrq"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: kBase + uint64(c)*4*kb}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			// Per-thread x/y/z read once at entry.
			x := xBase + uint64(gwarp(c, w, sc.WarpsPerCTA))*lineBytes
			b.Load(pcBase+0, x, 4)
			b.Load(pcBase+8, x+4*mb, 4)
			// k-space walk: same addresses across all warps of a CTA.
			p := cta.BaseAddr
			for i := 0; i < iters; i++ {
				b.Load(pcBase+16, p, 0)     // kVals[i] (broadcast)
				b.Load(pcBase+24, p+rec, 0) // phi[i]
				b.Compute(pcBase+32, 48)    // sin/cos heavy
				p += 2 * rec
			}
			b.Store(pcBase+40, 0x7F00_0000+uint64(gwarp(c, w, sc.WarpsPerCTA))*lineBytes, 4)
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+48)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}
