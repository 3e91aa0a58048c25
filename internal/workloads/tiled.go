package workloads

import "snake/internal/trace"

// TiledConv builds the §5.6 tiled convolution (modelled by matrix
// multiplication): a fixed total volume of input data is processed in two
// passes (a streaming pass and a re-read pass, the reuse that tiling exists
// to exploit). With tiling, the two passes run tile by tile with CTA
// barriers between phases, so the re-read pass hits in the cache whenever
// the tile fits; untiled (tileFrac <= 0), the re-read happens after the
// whole stream and misses everywhere.
//
// tileFrac sets the tile size as a fraction of the unified cache space.
// Snake detects the stride between tiles ("calculating the distances
// between the elements of tiles") and prefetches the following tile's
// segment while the current tile is being computed (§3.5).
func TiledConv(sc Scale, tileFrac float64, unifiedBytes int) *trace.Kernel {
	const (
		inBase  = 0xD000_0000
		outBase = 0xDF00_0000
		pcBase  = 0xC000
	)
	// Fixed total volume per CTA, independent of the tile size.
	totalLinesPerWarp := sc.Iters * 8
	totalTileLines := totalLinesPerWarp * sc.WarpsPerCTA

	name := "tiledconv"
	tileLines := totalTileLines // untiled: one "tile" spanning everything
	if tileFrac > 0 {
		tileLines = int(tileFrac * float64(unifiedBytes) / lineBytes)
		if tileLines < sc.WarpsPerCTA {
			tileLines = sc.WarpsPerCTA
		}
		if tileLines > totalTileLines {
			tileLines = totalTileLines
		}
	} else {
		name = "conv-untiled"
	}
	linesPerWarp := tileLines / sc.WarpsPerCTA
	tiles := totalLinesPerWarp / linesPerWarp
	if tiles < 1 {
		tiles = 1
	}

	ctaSpan := uint64(totalTileLines) * lineBytes
	k := &trace.Kernel{Name: name}
	for c := 0; c < sc.CTAs; c++ {
		ctaBase := uint64(inBase) + uint64(c)*ctaSpan
		cta := trace.CTA{ID: c, BaseAddr: ctaBase}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			for t := 0; t < tiles; t++ {
				tileBase := ctaBase + uint64(t*tileLines)*lineBytes
				p := tileBase + uint64(w*linesPerWarp)*lineBytes
				// Phase 1 — cooperative tile load: consecutive lines (a
				// chain with line-sized deltas and a fixed tile-to-tile
				// stride that Snake can follow into the next tile).
				for l := 0; l < linesPerWarp; l++ {
					b.Load(pcBase+0, p, 4)
					b.Compute(pcBase+8, 4)
					p += lineBytes
				}
				if tileFrac > 0 {
					b.Barrier(pcBase + 16)
				}
				// Phase 2 — compute on the tile, re-reading it: these loads
				// hit iff the tile still fits in the cache.
				p = tileBase + uint64(w*linesPerWarp)*lineBytes
				for l := 0; l < linesPerWarp; l++ {
					b.Load(pcBase+24, p, 4)
					b.Compute(pcBase+32, 10)
					p += lineBytes
				}
				if tileFrac > 0 {
					b.Barrier(pcBase + 40)
				}
			}
			b.Store(pcBase+48, outBase+uint64(gwarp(c, w, sc.WarpsPerCTA))*lineBytes, 4)
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+56)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}
