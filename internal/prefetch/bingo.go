package prefetch

// Bingo is a GPU adaptation of the Bingo spatial prefetcher (Bakhshalipour
// et al., HPCA'19 — §6.1 of the Snake paper): it learns the footprint of
// lines touched within a spatial region and, on the next trigger access to
// a matching region, prefetches the whole footprint. Lookup starts from the
// long event (PC + address); if that misses it falls back to the short
// event (PC + offset), exactly as the paper describes.
//
// Like Domino, Bingo is an extension comparison point: region footprints on
// a GPU are assembled by many warps at once, so the per-trigger footprint
// generalizes poorly.
type Bingo struct {
	nopCycle
	// RegionBytes is the spatial region size (default 2KB = 16 lines).
	RegionBytes uint64
	// LineBytes is the prefetch granularity (default 128).
	LineBytes uint64
	// MaxEntries bounds each history table (default 2048).
	MaxEntries int

	active map[uint64]regionState // region base -> accumulation
	long   map[longKey]uint32     // PC+trigger-address -> footprint
	short  map[shortKey]uint32    // PC+trigger-offset  -> footprint
	fifoA  ring[uint64]
	fifoL  ring[longKey]
	fifoS  ring[shortKey]
	reqs   []Request // OnAccess's result, reused across calls
}

type longKey struct {
	pc   uint64
	addr uint64
}

type shortKey struct {
	pc     uint64
	offset uint8
}

type regionState struct {
	footprint uint32 // bit per line in the region
	trigPC    uint64
	trigAddr  uint64
}

// NewBingo returns a Bingo prefetcher with default parameters.
func NewBingo() *Bingo {
	return &Bingo{
		RegionBytes: 2048,
		LineBytes:   128,
		MaxEntries:  2048,
		active:      make(map[uint64]regionState),
		long:        make(map[longKey]uint32),
		short:       make(map[shortKey]uint32),
	}
}

// Name implements Prefetcher.
func (p *Bingo) Name() string { return "bingo" }

// OnAccess implements Prefetcher.
func (p *Bingo) OnAccess(ev AccessEvent) []Request {
	region := ev.Addr &^ (p.RegionBytes - 1)
	lineIdx := uint((ev.Addr % p.RegionBytes) / p.LineBytes)
	if st, tracked := p.active[region]; tracked {
		st.footprint |= 1 << lineIdx
		p.active[region] = st
		return nil
	}
	// Trigger access to a new region: learn the previous epoch's footprint
	// is handled on eviction; start tracking and predict from history.
	if len(p.active) >= 64 { // few regions tracked at once, FIFO recycled
		p.retire(p.fifoA.pop())
	}
	p.active[region] = regionState{footprint: 1 << lineIdx, trigPC: ev.PC, trigAddr: ev.Addr}
	p.fifoA.push(region)

	// Long event first, then the short event (§6.1).
	fp, ok := p.long[longKey{ev.PC, ev.Addr}]
	if !ok {
		fp, ok = p.short[shortKey{ev.PC, uint8(lineIdx)}]
	}
	if !ok || fp == 0 {
		return nil
	}
	p.reqs = p.reqs[:0]
	for i := uint(0); i < uint(p.RegionBytes/p.LineBytes); i++ {
		if fp&(1<<i) != 0 && i != lineIdx {
			p.reqs = append(p.reqs, Request{Addr: region + uint64(i)*p.LineBytes})
		}
	}
	return p.reqs
}

// retire stores a finished region's footprint under both event keys.
func (p *Bingo) retire(region uint64) {
	st, ok := p.active[region]
	if !ok {
		return
	}
	delete(p.active, region)
	lk := longKey{st.trigPC, st.trigAddr}
	if _, exists := p.long[lk]; !exists {
		if p.fifoL.n >= p.MaxEntries {
			delete(p.long, p.fifoL.pop())
		}
		p.fifoL.push(lk)
	}
	p.long[lk] = st.footprint
	sk := shortKey{st.trigPC, uint8((st.trigAddr % p.RegionBytes) / p.LineBytes)}
	if _, exists := p.short[sk]; !exists {
		if p.fifoS.n >= p.MaxEntries {
			delete(p.short, p.fifoS.pop())
		}
		p.fifoS.push(sk)
	}
	p.short[sk] = st.footprint
}

// Reset implements Prefetcher.
func (p *Bingo) Reset() {
	clear(p.active)
	clear(p.long)
	clear(p.short)
	p.fifoA.reset()
	p.fifoL.reset()
	p.fifoS.reset()
}
