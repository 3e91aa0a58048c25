package sched

import (
	"math/rand"
	"testing"

	"snake/internal/config"
)

// The reference policies: the scan-every-warp bodies over a []bool ready
// slice that the bitset Picks replace. They are the oracle the bitset
// implementations must match pick for pick and state for state.

type refGTO struct{ last int }

func (g *refGTO) Pick(ready []bool, age []int64) int {
	if g.last >= 0 && g.last < len(ready) && ready[g.last] {
		return g.last
	}
	pick := -1
	for i, r := range ready {
		if r && (pick < 0 || age[i] < age[pick]) {
			pick = i
		}
	}
	g.last = pick
	return pick
}

type refLRR struct{ next int }

func (l *refLRR) Pick(ready []bool, _ []int64) int {
	n := len(ready)
	if n == 0 {
		return -1
	}
	for off := 0; off < n; off++ {
		i := (l.next + off) % n
		if ready[i] {
			l.next = (i + 1) % n
			return i
		}
	}
	return -1
}

type refOldest struct{}

func (refOldest) Pick(ready []bool, age []int64) int {
	pick := -1
	for i, r := range ready {
		if r && (pick < 0 || age[i] < age[pick]) {
			pick = i
		}
	}
	return pick
}

// setOf converts a ready slice to the Set the bitset Picks take.
func setOf(ready []bool) Set {
	s := NewSet(len(ready))
	for i, r := range ready {
		if r {
			s.Add(i)
		}
	}
	return s
}

// sliceModel is a scheduler slice under a random stream: member ages by
// position and the ready flags, mirrored into a Set sized for capacity
// positions.
type sliceModel struct {
	age     []int64
	ready   []bool
	set     Set
	nextAge int64
}

func (m *sliceModel) sync() {
	m.set.Clear()
	for i, r := range m.ready {
		if r {
			m.set.Add(i)
		}
	}
}

// step applies one random event: a membership refresh (members leave, join
// at the end, positions shift down), readiness flips, an all-idle or
// all-ready cycle, or an unchanged cycle.
func (m *sliceModel) step(rng *rand.Rand, capacity int) {
	switch r := rng.Intn(10); {
	case r < 2:
		keepAge, keepReady := m.age[:0], m.ready[:0]
		for i := range m.age {
			if rng.Intn(4) != 0 {
				keepAge, keepReady = append(keepAge, m.age[i]), append(keepReady, m.ready[i])
			}
		}
		m.age, m.ready = keepAge, keepReady
		for add := rng.Intn(capacity/2 + 1); add > 0 && len(m.age) < capacity; add-- {
			m.nextAge++
			m.age = append(m.age, m.nextAge)
			m.ready = append(m.ready, rng.Intn(2) == 0)
		}
	case r < 7:
		for flips := rng.Intn(4) + 1; flips > 0 && len(m.ready) > 0; flips-- {
			i := rng.Intn(len(m.ready))
			m.ready[i] = !m.ready[i]
		}
	case r < 8:
		clear(m.ready)
	case r < 9:
		for i := range m.ready {
			m.ready[i] = true
		}
	}
	m.sync()
}

// TestSchedulerMatchesOracle drives each bitset policy and its reference
// with the same seeded streams — membership churn that shifts positions,
// readiness flips, empty and all-idle slices, slices wider than one word —
// and requires the same pick and the same policy state after every step.
func TestSchedulerMatchesOracle(t *testing.T) {
	for _, capacity := range []int{1, 3, 16, 64, 65, 150} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			g, rg := New(config.SchedGTO).(*gto), &refGTO{last: -1}
			l, rl := New(config.SchedLRR).(*lrr), &refLRR{}
			o, ro := New(config.SchedOldest), refOldest{}
			m := &sliceModel{set: NewSet(capacity)}
			for step := 0; step < 2000; step++ {
				m.step(rng, capacity)
				if got, want := g.Pick(m.set, m.age), rg.Pick(m.ready, m.age); got != want || g.last != rg.last {
					t.Fatalf("cap %d seed %d step %d: gto pick %d last %d, oracle pick %d last %d",
						capacity, seed, step, got, g.last, want, rg.last)
				}
				if got, want := l.Pick(m.set, m.age), rl.Pick(m.ready, m.age); got != want || l.next != rl.next {
					t.Fatalf("cap %d seed %d step %d: lrr pick %d next %d, oracle pick %d next %d",
						capacity, seed, step, got, l.next, want, rl.next)
				}
				if got, want := o.Pick(m.set, m.age), ro.Pick(m.ready, m.age); got != want {
					t.Fatalf("cap %d seed %d step %d: oldest pick %d, oracle %d", capacity, seed, step, got, want)
				}
			}
		}
	}
}

// TestGTOGreedyPositionAcrossRefresh pins GTO's position-valued greedy
// pointer: after a refresh shifts the slice's members down, the remembered
// position names a different warp, and GTO issues that warp while it is
// ready rather than the oldest one. Both implementations agree.
func TestGTOGreedyPositionAcrossRefresh(t *testing.T) {
	g, rg := New(config.SchedGTO), &refGTO{last: -1}
	age := []int64{1, 2, 3}
	ready := []bool{false, true, true}
	if got := g.Pick(setOf(ready), age); got != 1 || rg.Pick(ready, age) != 1 {
		t.Fatalf("first pick = %d, want 1 (oldest ready)", got)
	}
	// The warp at position 0 leaves: ages 2 and 3 shift to positions 0, 1.
	age, ready = []int64{2, 3}, []bool{true, true}
	if got, want := g.Pick(setOf(ready), age), rg.Pick(ready, age); got != 1 || want != 1 {
		t.Fatalf("pick after refresh = %d (oracle %d), want 1: the greedy position, now the age-3 warp", got, want)
	}
}

var pickSink int

// BenchmarkPick measures one cycle's pick for each policy on a 16-warp
// slice (every shipped configuration has at most 16 warps per slice) whose
// readiness changes by a few warps per cycle.
func BenchmarkPick(b *testing.B) {
	for _, pol := range []config.SchedulerPolicy{config.SchedGTO, config.SchedLRR, config.SchedOldest} {
		b.Run(string(pol), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			age := make([]int64, 16)
			for i := range age {
				age[i] = int64(i)
			}
			sets := make([]Set, 64)
			for i := range sets {
				sets[i] = NewSet(16)
				for p := 0; p < 16; p++ {
					if rng.Intn(3) == 0 {
						sets[i].Add(p)
					}
				}
			}
			s := New(pol)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pickSink += s.Pick(sets[i&63], age)
			}
		})
	}
}
