package stats

// Shards is a set of per-shard Sim accumulators, one per SM: each SM counts
// into its own entry, which is what the engine reports as Result.PerSM, and
// Total merges them into the run's Sim.
//
// Merge (and therefore Total) is insensitive to how events were partitioned
// across shards: every counter is a sum and Cycles is a max, so merging any
// shard partition of an event stream yields the same totals as accumulating
// the stream serially. TestShardsMergePartitionInvariant pins this property.
type Shards struct {
	sims []Sim
}

// NewShards returns n zeroed per-shard accumulators.
func NewShards(n int) *Shards {
	return &Shards{sims: make([]Sim, n)}
}

// Shard returns the i-th accumulator for the owning shard to count into.
func (s *Shards) Shard(i int) *Sim { return &s.sims[i] }

// Len returns the number of shards.
func (s *Shards) Len() int { return len(s.sims) }

// Slice exposes the underlying accumulators (the engine's per-SM result
// view). The caller must not grow it.
func (s *Shards) Slice() []Sim { return s.sims }

// Reset zeroes every shard accumulator in place, so a recycled engine reuses
// the backing array instead of allocating a fresh Shards per run.
func (s *Shards) Reset() {
	clear(s.sims)
}

// Total merges every shard accumulator, in shard order, into one Sim.
func (s *Shards) Total() Sim {
	var out Sim
	for i := range s.sims {
		out.Merge(&s.sims[i])
	}
	return out
}
