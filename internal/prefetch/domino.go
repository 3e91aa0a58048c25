package prefetch

// Domino is a GPU adaptation of the Domino temporal prefetcher
// (Bakhshalipour et al., HPCA'18 — §6.1 of the Snake paper): it records the
// global miss-address stream and indexes it by the last two addresses, so a
// repeated temporal sequence replays ahead of the demands.
//
// On a GPU the "global stream" interleaves dozens of warps, which shreds
// temporal correlation — the very reason the paper argues CPU prefetchers
// "cannot be directly applied to GPUs". Domino is included as an extension
// comparison point (not one of the paper's nine); its results illustrate
// that argument quantitatively.
type Domino struct {
	nopCycle
	// Depth is how many successors to prefetch per hit (default 2).
	Depth int
	// MaxEntries bounds the correlation table (default 4096).
	MaxEntries int

	table map[pairKey]entryList
	fifo  ring[pairKey] // insertion order for eviction
	last  [2]uint64     // the two most recent line addresses
	have  int
	reqs  []Request // OnAccess's result, reused across calls
}

type pairKey struct{ a, b uint64 }

// entryList holds the successors observed after a pair (most recent first).
type entryList [2]uint64

// NewDomino returns a Domino prefetcher with default parameters.
func NewDomino() *Domino {
	return &Domino{Depth: 2, MaxEntries: 4096, table: make(map[pairKey]entryList)}
}

// Name implements Prefetcher.
func (p *Domino) Name() string { return "domino" }

// OnAccess implements Prefetcher.
func (p *Domino) OnAccess(ev AccessEvent) []Request {
	line := ev.LineAddr
	p.reqs = p.reqs[:0]
	if p.have == 2 {
		// Record: the pair (last[0], last[1]) is followed by line.
		k := pairKey{p.last[0], p.last[1]}
		e, exists := p.table[k]
		if !exists {
			if p.fifo.n >= p.MaxEntries {
				delete(p.table, p.fifo.pop())
			}
			p.fifo.push(k)
		}
		if e[0] != line {
			e[1] = e[0]
			e[0] = line
		}
		p.table[k] = e

		// Predict: walk the chain from the new pair.
		cur := pairKey{p.last[1], line}
		for d := 0; d < p.Depth; d++ {
			nxt, ok := p.table[cur]
			if !ok || nxt[0] == 0 {
				break
			}
			p.reqs = append(p.reqs, Request{Addr: nxt[0]})
			cur = pairKey{cur.b, nxt[0]}
		}
	}
	// Slide the history window.
	if p.have < 2 {
		p.last[p.have] = line
		p.have++
	} else {
		p.last[0], p.last[1] = p.last[1], line
	}
	return p.reqs
}

// Reset implements Prefetcher.
func (p *Domino) Reset() {
	clear(p.table)
	p.fifo.reset()
	p.have = 0
}
