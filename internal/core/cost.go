package core

// Hardware cost analytics reproducing Table 3 and Figure 21. The paper
// models the tables in CACTI 7.0 at 22nm scaled to 12nm and synthesizes the
// logic in a 28nm library; here the storage budgets are derived analytically
// from the field widths, matching Table 3's totals exactly.

// Cost describes the storage of one SM's Snake tables.
type Cost struct {
	HeadBytesPerEntry int
	HeadEntries       int
	TailBytesPerEntry int
	TailEntries       int
}

// HeadBytes returns the total Head-table storage.
func (c Cost) HeadBytes() int { return c.HeadBytesPerEntry * c.HeadEntries }

// TailBytes returns the total Tail-table storage.
func (c Cost) TailBytes() int { return c.TailBytesPerEntry * c.TailEntries }

// TotalBytes returns the combined storage.
func (c Cost) TotalBytes() int { return c.HeadBytes() + c.TailBytes() }

// Field widths (bits). PCs are 32-bit instruction offsets; base addresses
// are stored as 32-bit block-relative offsets; warp IDs cover 64 warps.
const (
	pcBits      = 32
	addrBits    = 32
	warpIDBits  = 6
	strideBits  = 32
	trainBits   = 2
	warpVecBits = 64
)

// CostOf returns the storage cost of a Snake configuration.
//
// Head entry (doubled columns, §5.5): one PC_ld + two warp IDs + two base
// addresses = 32 + 2*6 + 2*32 = 108 bits -> 14 bytes (Table 3).
//
// Tail entry (§3.1's eight fields): PC1 + PC2 + inter-thread stride + T1 +
// warp_ID vector + intra-warp stride + T2 + inter-warp stride
// = 32+32+32+2+64+32+2+32 = 228 bits, padded to 32 bytes (Table 3) to cover
// the training scratch registers.
func CostOf(cfg Config) Cost {
	headBits := pcBits + cfg.HeadSlotsPerRow*(warpIDBits+addrBits)
	tailBits := 2*pcBits + 3*strideBits + 2*trainBits + warpVecBits
	return Cost{
		HeadBytesPerEntry: (headBits + 7) / 8,
		HeadEntries:       cfg.HeadRows,
		TailBytesPerEntry: roundUpPow2((tailBits + 7) / 8),
		TailEntries:       cfg.TailEntries,
	}
}

// DefaultCost returns Table 3's configuration: a 14-byte × 32-entry Head
// table (448 bytes) and a 32-byte × 10-entry Tail table (320 bytes).
func DefaultCost() Cost { return CostOf(Defaults()) }

// StorageVsEntries reproduces the Figure 21 sweep: total storage as the Tail
// entry count varies.
func StorageVsEntries(entries []int) []int {
	out := make([]int, len(entries))
	for i, n := range entries {
		cfg := Defaults()
		cfg.TailEntries = n
		out[i] = CostOf(cfg).TotalBytes()
	}
	return out
}

// AccessEnergyPJ and StaticPowerMW are the paper's measured per-access
// energy and static power of the synthesized tables (§5.5).
const (
	AccessEnergyPJ = 6.4
	StaticPowerMW  = 6.0
)

// LatencyCycles is the pipeline latency of the detection/prefetch search:
// a parallel comparator over the 10 PC1s plus two AND gates (§5.5).
const LatencyCycles = 2

func roundUpPow2(v int) int {
	p := 1
	for p < v {
		p *= 2
	}
	return p
}
