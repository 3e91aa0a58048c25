package prefetch

// Ideal models the paper's Ideal prefetcher: it "supports all possible
// (fixed/variable) strides under the optimal characteristics (infinite
// storage and zero latency for the prefetching requests)" (§1).
//
// Concretely, Ideal reads the warp's future load stream from the oracle
// fields of the AccessEvent and prefetches every upcoming load whose
// inter-load delta (keyed by the consecutive PC pair) has been observed at
// least once before by any warp — i.e. every load expressible by some
// fixed or variable stride. Requests are magic: they are installed with zero
// latency and consume no bandwidth, MSHR entries or miss-queue slots.
type Ideal struct {
	nopCycle
	// Lookahead is how many future loads to prefetch per access (default 4).
	Lookahead int

	deltas map[pcPairDelta]bool
	last   map[int]pcAddr // per-warp last load
	reqs   []Request      // OnAccess's result, reused across calls
}

type pcPairDelta struct {
	pc1, pc2 uint64
	delta    int64
}

type pcAddr struct {
	pc   uint64
	addr uint64
	ok   bool
}

// NewIdeal returns an Ideal prefetcher with default lookahead.
func NewIdeal() *Ideal {
	return &Ideal{
		Lookahead: 4,
		deltas:    make(map[pcPairDelta]bool),
		last:      make(map[int]pcAddr),
	}
}

// Name implements Prefetcher.
func (p *Ideal) Name() string { return "ideal" }

// OnAccess implements Prefetcher.
func (p *Ideal) OnAccess(ev AccessEvent) []Request {
	// Record the observed delta between this and the warp's previous load.
	if prev := p.last[ev.WarpID]; prev.ok {
		p.deltas[pcPairDelta{prev.pc, ev.PC, int64(ev.Addr) - int64(prev.addr)}] = true
	}
	p.last[ev.WarpID] = pcAddr{pc: ev.PC, addr: ev.Addr, ok: true}

	// Walk the oracle future, prefetching every stride-expressible load.
	n := p.Lookahead
	if n > len(ev.FuturePCs) {
		n = len(ev.FuturePCs)
	}
	p.reqs = p.reqs[:0]
	pc, addr := ev.PC, ev.Addr
	for i := 0; i < n; i++ {
		npc, naddr := ev.FuturePCs[i], ev.FutureAddrs[i]
		if p.deltas[pcPairDelta{pc, npc, int64(naddr) - int64(addr)}] {
			p.reqs = append(p.reqs, Request{Addr: naddr})
		}
		pc, addr = npc, naddr
	}
	return p.reqs
}

// Reset implements Prefetcher.
func (p *Ideal) Reset() {
	clear(p.deltas)
	clear(p.last)
}
