// Package sched implements warp schedulers. Each SM has several scheduler
// slices, each owning a subset of the SM's warps; every cycle a scheduler
// picks one ready warp to issue from.
//
// The Greedy-Then-Oldest (GTO) policy — the Table 1 default — keeps issuing
// from the same warp until it stalls, then falls back to the oldest ready
// warp. GTO's greediness is why Snake's Head table doubles its warp-ID and
// base-address columns (§3.1): a greedy scheduler can interleave two warps'
// load streams in a way that a single-entry head would lose.
package sched

import (
	"math/bits"

	"snake/internal/config"
)

// Set is a bitset over a scheduler slice's warp positions: bit p (bit p&63
// of word p>>6) is set when the warp at position p is issuable this cycle.
// Callers size it to cover every position a slice can hold and keep bits at
// or past the slice's member count clear.
type Set []uint64

// NewSet returns an empty set covering positions [0, n).
func NewSet(n int) Set { return make(Set, (n+63)>>6) }

// Has reports whether position p is in the set.
func (s Set) Has(p int) bool { return s[p>>6]&(1<<(uint(p)&63)) != 0 }

// Add inserts position p.
func (s Set) Add(p int) { s[p>>6] |= 1 << (uint(p) & 63) }

// Remove deletes position p.
func (s Set) Remove(p int) { s[p>>6] &^= 1 << (uint(p) & 63) }

// Clear empties the set.
func (s Set) Clear() { clear(s) }

// firstFrom returns the lowest position ≥ p in the set, or -1.
func (s Set) firstFrom(p int) int {
	wi := p >> 6
	if wi >= len(s) {
		return -1
	}
	w := s[wi] &^ (1<<(uint(p)&63) - 1)
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi == len(s) {
			return -1
		}
		w = s[wi]
	}
}

// oldest returns the position in the set with the smallest age (the lowest
// such position on ties), or -1 when the set is empty.
func (s Set) oldest(age []int64) int {
	pick := -1
	for wi, w := range s {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if pick < 0 || age[i] < age[pick] {
				pick = i
			}
		}
	}
	return pick
}

// Scheduler picks the next warp to issue among a scheduler slice's warps.
type Scheduler interface {
	// Pick returns the position of the warp to issue, or -1 if none is
	// ready. The slice has len(age) member warps at positions
	// [0, len(age)); ready holds the issuable ones, and age[p] is a
	// monotonically increasing assignment stamp (smaller = older).
	Pick(ready Set, age []int64) int
	// Reset restores the scheduler to its just-constructed state, so a
	// recycled SM starts a new run with exactly the policy state a fresh New
	// would give it.
	Reset()
	// Name returns the policy name.
	Name() string
}

// New returns a scheduler implementing the given policy.
func New(policy config.SchedulerPolicy) Scheduler {
	switch policy {
	case config.SchedLRR:
		return &lrr{}
	case config.SchedOldest:
		return &oldest{}
	default:
		return &gto{last: -1}
	}
}

// gto is Greedy-Then-Oldest. The greedy warp is remembered by position, not
// by warp: when the slice's membership changes, the same position can name
// a different warp (a known model deviation, see DESIGN.md).
type gto struct {
	last int
}

func (g *gto) Name() string { return string(config.SchedGTO) }

// Pick implements Scheduler: the greedy warp while it stays ready, else the
// oldest ready warp, which becomes the greedy one (-1 when none is ready).
func (g *gto) Pick(ready Set, age []int64) int {
	if g.last >= 0 && g.last < len(age) && ready.Has(g.last) {
		return g.last
	}
	g.last = ready.oldest(age)
	return g.last
}

// Reset implements Scheduler.
func (g *gto) Reset() { g.last = -1 }

// lrr is loose round-robin.
type lrr struct {
	next int
}

func (l *lrr) Name() string { return string(config.SchedLRR) }

// Reset implements Scheduler.
func (l *lrr) Reset() { l.next = 0 }

// Pick implements Scheduler: the first ready position at or after next
// (mod the member count), wrapping around; next moves past the pick and
// stays put when nothing is ready.
func (l *lrr) Pick(ready Set, age []int64) int {
	n := len(age)
	if n == 0 {
		return -1
	}
	i := ready.firstFrom(l.next % n)
	if i < 0 {
		if i = ready.firstFrom(0); i < 0 {
			return -1
		}
	}
	l.next = (i + 1) % n
	return i
}

// oldest always picks the oldest ready warp.
type oldest struct{}

func (oldest) Name() string { return string(config.SchedOldest) }

// Reset implements Scheduler.
func (oldest) Reset() {}

// Pick implements Scheduler.
func (oldest) Pick(ready Set, age []int64) int { return ready.oldest(age) }
