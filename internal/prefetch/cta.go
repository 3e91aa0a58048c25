package prefetch

// CTAAware implements the CTA-aware prefetcher of Koo et al. [25]: warps in
// the current CTA prefetch for the corresponding warps of future CTAs, which
// provides good timeliness (future CTAs run much later) at the cost of a
// detection period during which the per-CTA base-address stride is computed —
// the source of its comparatively low coverage (§2, §5.1).
type CTAAware struct {
	nopCycle
	// Degree is how many future CTAs to prefetch for (default 1).
	Degree int
	// MinCTAs is the number of CTA base strides that must agree (default 2).
	MinCTAs int

	// Per-PC offset tracking within a CTA.
	lastBase   uint64
	haveBase   bool
	ctaStride  int64
	strideSeen int
	lastCTA    int

	reqs []Request // OnAccess's result, reused across calls
}

// NewCTAAware returns a CTA-aware prefetcher with default parameters.
func NewCTAAware() *CTAAware {
	return &CTAAware{Degree: 1, MinCTAs: 2, lastCTA: -1}
}

// Name implements Prefetcher.
func (p *CTAAware) Name() string { return "cta-aware" }

// OnAccess implements Prefetcher.
func (p *CTAAware) OnAccess(ev AccessEvent) []Request {
	// Learn the CTA base stride from CTA transitions observed on this SM.
	if !p.haveBase {
		p.haveBase = true
		p.lastBase = ev.CTABase
		p.lastCTA = ev.CTAID
	} else if ev.CTAID != p.lastCTA {
		// Computing the base address of a CTA is time-consuming in hardware
		// (§6.2); the model charges that cost as a detection period of
		// MinCTAs CTA transitions before prefetching begins.
		stride := int64(ev.CTABase) - int64(p.lastBase)
		if stride == p.ctaStride && stride != 0 {
			p.strideSeen++
		} else {
			p.ctaStride = stride
			p.strideSeen = 1
		}
		p.lastBase = ev.CTABase
		p.lastCTA = ev.CTAID
	}
	if p.strideSeen < p.MinCTAs || p.ctaStride == 0 {
		return nil
	}
	// Prefetch this load's address translated into the next CTA(s).
	p.reqs = strideRequests(p.reqs[:0], ev.Addr, p.ctaStride, p.Degree)
	return p.reqs
}

// Reset implements Prefetcher.
func (p *CTAAware) Reset() {
	*p = CTAAware{Degree: p.Degree, MinCTAs: p.MinCTAs, lastCTA: -1, reqs: p.reqs}
}
