package prefetch

// Tree adopts the spatial-locality prefetcher of Ganguly et al. [15] to the
// GPU context per §4: it considers 64KB chunks of global memory and
// prefetches chunk contents into the L1 data cache. Aggressive spatial
// prefetching hurts GPU performance due to limited memory resources (§6.2);
// the model caps the burst issued per trigger, with the rest dropped by the
// memory system's own backpressure, matching the paper's observation of
// cache under-utilization from useless data.
type Tree struct {
	nopCycle
	// ChunkBytes is the spatial region size (default 64KB).
	ChunkBytes uint64
	// LineBytes is the prefetch granularity (default 128).
	LineBytes uint64
	// BurstLines caps lines issued per trigger (default 16).
	BurstLines int

	seen map[uint64]int // chunk -> lines issued so far
	reqs []Request      // OnAccess's result, reused across calls
}

// NewTree returns a Tree prefetcher with default parameters.
func NewTree() *Tree {
	return &Tree{ChunkBytes: 64 * 1024, LineBytes: 128, BurstLines: 16, seen: make(map[uint64]int)}
}

// Name implements Prefetcher.
func (p *Tree) Name() string { return "tree" }

// OnAccess implements Prefetcher.
func (p *Tree) OnAccess(ev AccessEvent) []Request {
	chunk := ev.Addr / p.ChunkBytes
	issued := p.seen[chunk]
	linesPerChunk := int(p.ChunkBytes / p.LineBytes)
	if issued >= linesPerChunk {
		return nil
	}
	base := chunk * p.ChunkBytes
	n := p.BurstLines
	if issued+n > linesPerChunk {
		n = linesPerChunk - issued
	}
	p.reqs = p.reqs[:0]
	for i := 0; i < n; i++ {
		p.reqs = append(p.reqs, Request{Addr: base + uint64(issued+i)*p.LineBytes})
	}
	p.seen[chunk] = issued + n
	return p.reqs
}

// Reset implements Prefetcher.
func (p *Tree) Reset() { clear(p.seen) }
