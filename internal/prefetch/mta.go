package prefetch

// MTA is the Many-Thread-Aware prefetcher of Lee et al. [29]: the
// combination of the intra-warp and inter-warp mechanisms, providing the best
// coverage among the prior fixed-stride prefetchers (§2). It inherits both
// components' drawbacks: limited opportunity without deep loops and the
// inter-warp timeliness problem.
type MTA struct {
	nopCycle
	intra *IntraWarp
	inter *InterWarp
	reqs  []Request // merged result, reused across calls
}

// NewMTA returns an MTA prefetcher with default sub-prefetcher parameters.
func NewMTA() *MTA {
	return &MTA{intra: NewIntraWarp(), inter: NewInterWarp()}
}

// Name implements Prefetcher.
func (p *MTA) Name() string { return "mta" }

// OnAccess implements Prefetcher: union of intra- and inter-warp candidates
// with duplicates removed.
func (p *MTA) OnAccess(ev AccessEvent) []Request {
	a := p.intra.OnAccess(ev)
	b := p.inter.OnAccess(ev)
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	// Both lists hold Degree requests (1 by default), so a linear scan
	// deduplicates cheaper than any set.
	p.reqs = p.reqs[:0]
	for _, list := range [2][]Request{a, b} {
	next:
		for _, r := range list {
			for _, q := range p.reqs {
				if q.Addr == r.Addr {
					continue next
				}
			}
			p.reqs = append(p.reqs, r)
		}
	}
	return p.reqs
}

// Reset implements Prefetcher.
func (p *MTA) Reset() {
	p.intra.Reset()
	p.inter.Reset()
}
