package prefetch

// IntraWarp is the classic per-thread stride prefetcher of Lee et al. [29]:
// each warp prefetches for the next iteration of the same load instruction
// executed by the same warp. It achieves high coverage only in the presence
// of deep loop iterations (§2).
type IntraWarp struct {
	nopCycle
	// Degree is how many iterations ahead to prefetch (default 1).
	Degree int
	// MinConfidence is how many consecutive identical strides must be seen
	// before prefetching (default 2).
	MinConfidence int

	table map[intraKey]intraEntry
	reqs  []Request // OnAccess's result, reused across calls
}

type intraKey struct {
	warp int
	pc   uint64
}

type intraEntry struct {
	lastAddr   uint64
	stride     int64
	confidence int
}

// NewIntraWarp returns an intra-warp prefetcher with default parameters:
// degree 1 — each thread prefetches for the next iteration of the same load
// instruction, per Lee et al. [29]. Multi-step lookahead is what Snake's
// chain walking adds on top.
func NewIntraWarp() *IntraWarp {
	return &IntraWarp{Degree: 1, MinConfidence: 2, table: make(map[intraKey]intraEntry)}
}

// Name implements Prefetcher.
func (p *IntraWarp) Name() string { return "intra-warp" }

// OnAccess implements Prefetcher.
func (p *IntraWarp) OnAccess(ev AccessEvent) []Request {
	k := intraKey{ev.WarpID, ev.PC}
	e, ok := p.table[k]
	if !ok {
		p.table[k] = intraEntry{lastAddr: ev.Addr}
		return nil
	}
	stride := int64(ev.Addr) - int64(e.lastAddr)
	e.lastAddr = ev.Addr
	if stride != 0 {
		if stride == e.stride {
			if e.confidence < 1<<20 {
				e.confidence++
			}
		} else {
			e.stride = stride
			e.confidence = 1
		}
	}
	p.table[k] = e
	if stride == 0 || e.confidence < p.MinConfidence {
		return nil
	}
	p.reqs = strideRequests(p.reqs[:0], ev.Addr, stride, p.Degree)
	return p.reqs
}

// Reset implements Prefetcher.
func (p *IntraWarp) Reset() { clear(p.table) }
