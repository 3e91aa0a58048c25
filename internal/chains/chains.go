// Package chains mines chains of strides from kernel load traces offline,
// reproducing the paper's motivational trace-based analysis: the fraction of
// load PCs participating in chains (Figure 9), the maximum repetition of a
// chain within a representative warp (Figure 10), and the fraction of
// dynamic accesses prefetchable by chains versus the MTA mechanisms
// (Figure 11).
package chains

import (
	"sort"

	"snake/internal/trace"
)

// MinRepeat is the confirmation threshold used throughout: a stride (or
// chain link) must be observed this many times before it counts as
// trainable, matching Snake's three-warp promotion rule.
const MinRepeat = 3

// link identifies one chain edge: a consecutive load-PC pair and the stride
// between their addresses.
type link struct {
	pc1, pc2 uint64
	delta    int64
}

// Stats is the result of mining one kernel.
type Stats struct {
	// TotalPCs is the number of static load PCs in the representative warp.
	TotalPCs int
	// ChainPCs is how many of them participate in at least one stable chain
	// link (Figure 9's numerator).
	ChainPCs int
	// MaxRepetition is the highest repetition count of any chain within the
	// representative warp (Figure 10).
	MaxRepetition int
	// ChainCoverage is the fraction of all dynamic loads prefetchable with
	// trained chain links (Figure 11, chains series).
	ChainCoverage float64
	// MTACoverage is the fraction prefetchable by MTA's intra-warp +
	// inter-warp fixed strides (Figure 11, MTA series).
	MTACoverage float64
	// Links enumerates the stable links of the representative warp, most
	// frequent first (used by the chain-explorer example).
	Links []LinkInfo
}

// LinkInfo describes one stable chain link.
type LinkInfo struct {
	PC1, PC2 uint64
	Delta    int64
	Count    int
}

// PCFraction returns ChainPCs / TotalPCs.
func (s Stats) PCFraction() float64 {
	if s.TotalPCs == 0 {
		return 0
	}
	return float64(s.ChainPCs) / float64(s.TotalPCs)
}

// Analyze mines the kernel.
func Analyze(k *trace.Kernel) Stats {
	var st Stats
	rep := k.RepresentativeWarp()
	if rep == nil {
		return st
	}
	st.TotalPCs = len(rep.LoadPCs())

	// Stable links within the representative warp.
	repLinks := countLinks(rep)
	chainPCs := make(map[uint64]bool)
	maxRep := 0
	for l, n := range repLinks {
		if n >= MinRepeat {
			chainPCs[l.pc1] = true
			chainPCs[l.pc2] = true
			if n > maxRep {
				maxRep = n
			}
			st.Links = append(st.Links, LinkInfo{PC1: l.pc1, PC2: l.pc2, Delta: l.delta, Count: n})
		}
	}
	sort.Slice(st.Links, func(i, j int) bool {
		if st.Links[i].Count != st.Links[j].Count {
			return st.Links[i].Count > st.Links[j].Count
		}
		return st.Links[i].PC1 < st.Links[j].PC1
	})
	st.ChainPCs = len(chainPCs)
	st.MaxRepetition = maxRep

	st.ChainCoverage, st.MTACoverage = dynamicCoverage(k)
	return st
}

// countLinks tallies consecutive-load links of one warp.
func countLinks(w *trace.WarpProgram) map[link]int {
	loads := w.Loads()
	out := make(map[link]int)
	for i := 1; i < len(loads); i++ {
		out[link{uint64(loads[i-1].PC), uint64(loads[i].PC), int64(loads[i].Addr) - int64(loads[i-1].Addr)}]++
	}
	return out
}

// dynamicCoverage replays all warps round-robin (approximating concurrent
// execution) and counts, per dynamic load, whether it would have been
// prefetchable by (a) a previously trained chain link and (b) MTA's
// intra-warp or inter-warp fixed stride.
func dynamicCoverage(k *trace.Kernel) (chain, mta float64) {
	type cursor struct {
		loads []trace.Inst
		pos   int
		warp  int
	}
	var cursors []cursor
	warpID := 0
	for ci := range k.CTAs {
		for wi := range k.CTAs[ci].Warps {
			cursors = append(cursors, cursor{loads: k.CTAs[ci].Warps[wi].Loads(), warp: warpID})
			warpID++
		}
	}

	linkSeen := make(map[link]int)
	// Self-links: a PC chained with itself across re-executions — Snake's
	// pc1 == pc2 Tail entries (§3.1's intra-warp case 1). They are part of
	// the chains-of-strides model, not only of MTA.
	type selfKey struct {
		pc    uint64
		delta int64
	}
	selfSeen := make(map[selfKey]int)
	type lastKey struct {
		warp int
		pc   uint64
	}
	lastExec := make(map[lastKey]uint64)
	type intraKey struct {
		warp int
		pc   uint64
	}
	type intraState struct {
		last   uint64
		stride int64
		conf   int
	}
	intra := make(map[intraKey]*intraState)
	type interState struct {
		last   uint64
		lastW  int
		stride int64
		conf   int
	}
	inter := make(map[uint64]*interState)
	prevLoad := make(map[int]trace.Inst)
	prevOK := make(map[int]bool)

	var total, chainCov, mtaCov int
	active := len(cursors)
	for active > 0 {
		active = 0
		for i := range cursors {
			c := &cursors[i]
			if c.pos >= len(c.loads) {
				continue
			}
			active++
			in := c.loads[c.pos]
			pc := uint64(in.PC)
			c.pos++
			total++

			covChain, covMTA := false, false

			// Chain: the incoming link was trained before this access.
			if prevOK[c.warp] {
				l := link{uint64(prevLoad[c.warp].PC), pc, int64(in.Addr) - int64(prevLoad[c.warp].Addr)}
				if linkSeen[l] >= MinRepeat {
					covChain = true
				}
				linkSeen[l]++
			}
			prevLoad[c.warp] = in
			prevOK[c.warp] = true

			// Self-link: the PC's re-execution stride within this warp.
			lk := lastKey{c.warp, pc}
			if last, ok := lastExec[lk]; ok {
				sk := selfKey{pc, int64(in.Addr) - int64(last)}
				if selfSeen[sk] >= MinRepeat {
					covChain = true
				}
				selfSeen[sk]++
			}
			lastExec[lk] = in.Addr

			// MTA intra-warp: per (warp, PC) fixed stride.
			ik := intraKey{c.warp, pc}
			if s, ok := intra[ik]; ok {
				d := int64(in.Addr) - int64(s.last)
				if d == s.stride && d != 0 {
					if s.conf >= 2 {
						covMTA = true
					}
					s.conf++
				} else {
					s.stride = d
					s.conf = 1
				}
				s.last = in.Addr
			} else {
				intra[ik] = &intraState{last: in.Addr}
			}

			// MTA inter-warp: per-PC fixed stride between warps.
			if s, ok := inter[pc]; ok {
				if dw := c.warp - s.lastW; dw != 0 {
					d := (int64(in.Addr) - int64(s.last)) / int64(dw)
					if d == s.stride && d != 0 {
						if s.conf >= MinRepeat-1 {
							covMTA = true
						}
						s.conf++
					} else {
						s.stride = d
						s.conf = 1
					}
				}
				s.last = in.Addr
				s.lastW = c.warp
			} else {
				inter[pc] = &interState{last: in.Addr, lastW: c.warp}
			}

			if covChain {
				chainCov++
			}
			if covMTA {
				mtaCov++
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(chainCov) / float64(total), float64(mtaCov) / float64(total)
}
