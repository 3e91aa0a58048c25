package prefetch

// InterWarp is the inter-warp stride prefetcher of Lee et al. [29]: since
// warps within a CTA have a fixed number of threads, consecutive warps often
// access addresses a fixed stride apart at the same PC, so each warp
// prefetches for future warps. The mechanism suffers a timeliness/accuracy
// trade-off: warps within a CTA are scheduled close in time, and the stride
// breaks across CTA boundaries (§2).
type InterWarp struct {
	nopCycle
	// Degree is how many future warps to prefetch for (default 2).
	Degree int
	// MinWarps is the number of distinct warps that must confirm the stride
	// (default 3, matching Snake's promotion rule).
	MinWarps int

	table map[uint64]interEntry // keyed by PC
	reqs  []Request             // OnAccess's result, reused across calls
}

type interEntry struct {
	lastAddr  uint64
	lastWarp  int
	stride    int64 // per-warp stride
	warpsSeen int
	valid     bool
}

// NewInterWarp returns an inter-warp prefetcher with default parameters:
// each warp prefetches for the next future warp, per Lee et al. [29].
func NewInterWarp() *InterWarp {
	return &InterWarp{Degree: 1, MinWarps: 3, table: make(map[uint64]interEntry)}
}

// Name implements Prefetcher.
func (p *InterWarp) Name() string { return "inter-warp" }

// OnAccess implements Prefetcher.
func (p *InterWarp) OnAccess(ev AccessEvent) []Request {
	e, ok := p.table[ev.PC]
	if !ok {
		p.table[ev.PC] = interEntry{lastAddr: ev.Addr, lastWarp: ev.WarpID, warpsSeen: 1}
		return nil
	}
	dw := ev.WarpID - e.lastWarp
	if dw != 0 {
		stride := (int64(ev.Addr) - int64(e.lastAddr)) / int64(dw)
		if stride == e.stride && stride != 0 {
			e.warpsSeen++
			if e.warpsSeen >= p.MinWarps {
				e.valid = true
			}
		} else {
			e.stride = stride
			e.warpsSeen = 2 // the stride was observed between two warps
			e.valid = false
		}
	}
	e.lastAddr = ev.Addr
	e.lastWarp = ev.WarpID
	p.table[ev.PC] = e
	if !e.valid || e.stride == 0 {
		return nil
	}
	p.reqs = strideRequests(p.reqs[:0], ev.Addr, e.stride, p.Degree)
	return p.reqs
}

// Reset implements Prefetcher.
func (p *InterWarp) Reset() { clear(p.table) }
