package cache

import (
	"math"
	"math/rand"
	"testing"

	"snake/internal/config"
)

// refCache is a deliberately plain reference for Cache's replacement
// behaviour: linear set scans for lookup, Reserve's victim search as a full
// scan of dense shadow arrays (vkeys/vgroups) with the filter folded into a
// group mask, and EvictLRUOfClass as a swap-based partial selection sort.
// The differential tests drive it and a Cache with the same op stream.
type refCache struct {
	ways, sets        int
	setShift, setBits uint
	lines             []refLine
	vkeys             []int64
	vgroups           []uint8 // one-hot class<<1|touched; 0 while invalid or reserved

	nData, nPrefetch, nReserved int
}

type refLine struct {
	tag             uint64
	valid, reserved bool
	class           Class
	touched         bool
	lastUse         int64
}

func newRefCache(g config.CacheGeom) *refCache {
	r := &refCache{ways: g.Ways, sets: g.Sets()}
	for 1<<r.setShift < g.LineSize {
		r.setShift++
	}
	for 1<<r.setBits < r.sets {
		r.setBits++
	}
	n := r.sets * r.ways
	r.lines = make([]refLine, n)
	r.vkeys = make([]int64, n)
	r.vgroups = make([]uint8, n)
	return r
}

func (r *refCache) index(addr uint64) (set int, tag uint64) {
	la := addr >> r.setShift
	return int(la & uint64(r.sets-1)), la >> r.setBits
}

func (r *refCache) find(addr uint64) int {
	s, tag := r.index(addr)
	for i := s * r.ways; i < (s+1)*r.ways; i++ {
		if ln := &r.lines[i]; (ln.valid || ln.reserved) && ln.tag == tag {
			return i
		}
	}
	return -1
}

func (r *refCache) Probe(addr uint64) ProbeResult {
	i := r.find(addr)
	if i < 0 {
		return ProbeResult{}
	}
	ln := &r.lines[i]
	return ProbeResult{Present: ln.valid, Reserved: ln.reserved, Class: ln.class, Touched: ln.touched}
}

func (r *refCache) touch(i int, cycle int64) bool {
	ln := &r.lines[i]
	ln.lastUse = cycle
	ln.touched = true
	transferred := false
	if ln.class == ClassPrefetch {
		ln.class = ClassData
		r.nPrefetch--
		r.nData++
		transferred = true
	}
	r.vkeys[i] = cycle
	r.vgroups[i] = 1 << (uint8(ln.class)<<1 | 1)
	return transferred
}

func (r *refCache) Touch(addr uint64, cycle int64) (transferred, wasPrefetch, ok bool) {
	i := r.find(addr)
	if i < 0 || !r.lines[i].valid {
		return false, false, false
	}
	t := r.touch(i, cycle)
	return t, t, true
}

func (r *refCache) Hit(addr uint64, cycle int64) ProbeResult {
	p := r.Probe(addr)
	if p.Present {
		r.touch(r.find(addr), cycle)
	}
	return p
}

func (r *refCache) Reserve(addr uint64, class Class, cycle int64, filter VictimFilter) (EvictInfo, bool) {
	if r.find(addr) >= 0 {
		return EvictInfo{}, false
	}
	s, tag := r.index(addr)
	base := s * r.ways
	for w := 0; w < r.ways; w++ {
		if ln := &r.lines[base+w]; !ln.valid && !ln.reserved {
			r.install(base+w, tag, class)
			return EvictInfo{}, true
		}
	}
	allowed := uint8(0xF)
	if filter != nil {
		allowed = 0
		for g := uint8(0); g < 4; g++ {
			if filter(Class(g>>1), g&1 == 1) {
				allowed |= 1 << g
			}
		}
	}
	vk := r.vkeys[base : base+r.ways]
	vg := r.vgroups[base : base+r.ways]
	victim := -1
	oldest := int64(math.MaxInt64)
	for i := range vk {
		g := int64(vg[i] & allowed)
		m := (g | -g) >> 63
		key := vk[i]&m | math.MaxInt64&^m
		if key < oldest {
			victim = i
			oldest = key
		}
	}
	if victim < 0 {
		return EvictInfo{}, false
	}
	ev := r.evict(base + victim)
	r.install(base+victim, tag, class)
	return ev, true
}

func (r *refCache) install(i int, tag uint64, class Class) {
	r.lines[i] = refLine{tag: tag, reserved: true, class: class}
	r.vgroups[i] = 0
	r.nReserved++
}

func (r *refCache) evict(i int) EvictInfo {
	ln := &r.lines[i]
	s := i / r.ways
	ev := EvictInfo{Valid: true, Class: ln.class, Touched: ln.touched,
		LineAddr: (ln.tag<<r.setBits | uint64(s)) << r.setShift}
	if ln.class == ClassPrefetch {
		r.nPrefetch--
	} else {
		r.nData--
	}
	ln.valid = false
	ln.reserved = false
	r.vgroups[i] = 0
	return ev
}

func (r *refCache) Fill(addr uint64, cycle int64) bool {
	i := r.find(addr)
	if i < 0 || !r.lines[i].reserved {
		return false
	}
	ln := &r.lines[i]
	ln.reserved = false
	ln.valid = true
	ln.lastUse = cycle
	r.nReserved--
	if ln.class == ClassPrefetch {
		r.nPrefetch++
	} else {
		r.nData++
	}
	r.vkeys[i] = cycle
	r.vgroups[i] = 1 << (uint8(ln.class) << 1)
	return true
}

func (r *refCache) EvictLRUOfClass(class Class, n int) []EvictInfo {
	if n <= 0 {
		return nil
	}
	type cand struct {
		i       int
		lastUse int64
	}
	var cands []cand
	for i := range r.lines {
		if ln := &r.lines[i]; ln.valid && !ln.reserved && ln.class == class {
			cands = append(cands, cand{i, ln.lastUse})
		}
	}
	if n > len(cands) {
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].lastUse < cands[min].lastUse {
				min = j
			}
		}
		cands[i], cands[min] = cands[min], cands[i]
	}
	out := make([]EvictInfo, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.evict(cands[i].i))
	}
	return out
}

func (r *refCache) InvalidateAll() {
	for i := range r.lines {
		r.lines[i] = refLine{}
		r.vgroups[i] = 0
	}
	r.nData, r.nPrefetch, r.nReserved = 0, 0, 0
}

func (r *refCache) Occupancy() (data, prefetch, reserved, free int) {
	return r.nData, r.nPrefetch, r.nReserved, len(r.lines) - r.nData - r.nPrefetch - r.nReserved
}

// oracleFilters are the victim filters the simulator passes to Reserve:
// none, the prefetch side's two, and the decoupled demand side's two.
var oracleFilters = []struct {
	name string
	f    VictimFilter
}{
	{"nil", nil},
	{"neverEvict", neverEvict},
	{"prefetchClassOnly", prefetchClassOnly},
	{"demand", func(c Class, touched bool) bool { return c == ClassData || touched }},
	{"demandCapped", func(c Class, _ bool) bool { return c == ClassData }},
}

// checkVictimLists verifies the victim-list invariant — each (set, group)
// list links exactly the set's valid lines of that group, in ascending
// (lastUse, way) order, with consistent back links — and that each class
// bitmap marks exactly the valid lines of its class.
func checkVictimLists(t *testing.T, c *Cache) {
	t.Helper()
	seen := 0
	for s := 0; s < len(c.lists)/4; s++ {
		for g := 0; g < 4; g++ {
			vl := c.lists[s<<2|g]
			prev := int32(-1)
			for p := vl.head; p >= 0; p = c.lines[p].next {
				ln := &c.lines[p]
				if int(p)/c.ways != s || !ln.valid || ln.reserved || ln.group() != g {
					t.Fatalf("set %d group %d links line %d (set %d, valid %v, reserved %v, group %d)",
						s, g, p, int(p)/c.ways, ln.valid, ln.reserved, ln.group())
				}
				if ln.prev != prev || prev >= 0 && !c.before(prev, p) {
					t.Fatalf("set %d group %d: line %d out of order after %d", s, g, p, prev)
				}
				prev = p
				seen++
			}
			if vl.tail != prev {
				t.Fatalf("set %d group %d: tail %d, last linked %d", s, g, vl.tail, prev)
			}
		}
	}
	if data, pf, _, _ := c.Occupancy(); seen != data+pf {
		t.Fatalf("victim lists link %d lines, %d are valid", seen, data+pf)
	}
	for pos := range c.lines {
		ln := &c.lines[pos]
		for class := ClassData; class <= ClassPrefetch; class++ {
			want := ln.valid && ln.class == class
			if got := c.classBits[class][pos>>6]>>(pos&63)&1 == 1; got != want {
				t.Fatalf("line %d: class %d bit %v, want %v", pos, class, got, want)
			}
		}
	}
}

// TestCacheMatchesOracle drives Cache and refCache with seeded random op
// streams and requires identical results, probes and occupancy after every
// op. Cycles advance slowly, so many lines share a lastUse, and now and then
// step back, as the unit tests' reused cycles do.
func TestCacheMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    config.CacheGeom
		seed int64
		ops  int
	}{
		{"256way", config.CacheGeom{SizeBytes: 128 * 1024, Ways: 256, LineSize: 128}, 1, 40000},
		{"256way-seed2", config.CacheGeom{SizeBytes: 128 * 1024, Ways: 256, LineSize: 128}, 2, 40000},
		{"16way", config.CacheGeom{SizeBytes: 16 * 1024, Ways: 16, LineSize: 128}, 1, 20000},
		{"16way-seed2", config.CacheGeom{SizeBytes: 16 * 1024, Ways: 16, LineSize: 128}, 2, 20000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runOracle(t, tc.g, tc.seed, tc.ops)
		})
	}
}

func runOracle(t *testing.T, g config.CacheGeom, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	c, r := New(g), newRefCache(g)
	sets := g.Sets()
	// Twice as many tags per set as ways: sets fill up, hits and duplicates
	// are common, and every set sees evictions.
	tags := 2 * g.Ways
	addr := func() uint64 {
		return (uint64(rng.Intn(tags))*uint64(sets) + uint64(rng.Intn(sets))) * uint64(g.LineSize)
	}
	var inflight []uint64
	var victims, refused, bulk, full, invalidations int
	cycle := int64(1000)
	probe := func(op string, i int, a uint64) {
		if got, want := c.Probe(a), r.Probe(a); got != want {
			t.Fatalf("op %d (%s): Probe(%#x) = %+v, want %+v", i, op, a, got, want)
		}
	}
	for i := 0; i < ops; i++ {
		switch x := rng.Intn(100); {
		case x < 30:
			cycle++
		case x < 32:
			cycle -= int64(rng.Intn(20))
		}
		var op string
		var a uint64
		var evs []EvictInfo
		switch k := rng.Intn(100); {
		case k < 35:
			a = addr()
			f := oracleFilters[rng.Intn(len(oracleFilters))]
			class := Class(rng.Intn(2))
			op = "Reserve/" + f.name
			ev, ok := c.Reserve(a, class, cycle, f.f)
			wev, wok := r.Reserve(a, class, cycle, f.f)
			if ev != wev || ok != wok {
				t.Fatalf("op %d: Reserve(%#x, %d, %s) = %+v, %v; want %+v, %v", i, a, class, f.name, ev, ok, wev, wok)
			}
			if ok {
				inflight = append(inflight, a)
				evs = append(evs, ev)
				if ev.Valid {
					victims++
				}
			} else if f.f != nil && r.find(a) < 0 {
				refused++
			}
		case k < 65:
			op = "Fill"
			if len(inflight) > 0 && rng.Intn(10) > 0 {
				j := rng.Intn(len(inflight))
				a = inflight[j]
				inflight[j] = inflight[len(inflight)-1]
				inflight = inflight[:len(inflight)-1]
			} else {
				a = addr()
			}
			if got, want := c.Fill(a, cycle), r.Fill(a, cycle); got != want {
				t.Fatalf("op %d: Fill(%#x) = %v, want %v", i, a, got, want)
			}
		case k < 82:
			op = "Hit"
			a = addr()
			if got, want := c.Hit(a, cycle), r.Hit(a, cycle); got != want {
				t.Fatalf("op %d: Hit(%#x) = %+v, want %+v", i, a, got, want)
			}
		case k < 97:
			op = "Touch"
			a = addr()
			t1, p1, ok1 := c.Touch(a, cycle)
			t2, p2, ok2 := r.Touch(a, cycle)
			if t1 != t2 || p1 != p2 || ok1 != ok2 {
				t.Fatalf("op %d: Touch(%#x) = %v,%v,%v; want %v,%v,%v", i, a, t1, p1, ok1, t2, p2, ok2)
			}
		case k < 99:
			op = "Probe"
			a = addr()
		case rng.Intn(50) > 0:
			class := Class(rng.Intn(2))
			n := rng.Intn(8)
			if rng.Intn(40) == 0 {
				n = rng.Intn(c.Lines()/4 + 8) // a FreeQuarter-sized sweep
			}
			op = "EvictLRUOfClass"
			got, want := c.EvictLRUOfClass(class, n), r.EvictLRUOfClass(class, n)
			if len(got) != len(want) {
				t.Fatalf("op %d: EvictLRUOfClass(%d, %d) evicted %d lines, want %d", i, class, n, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("op %d: EvictLRUOfClass(%d, %d)[%d] = %+v, want %+v", i, class, n, j, got[j], want[j])
				}
			}
			evs = append(evs, got...)
			bulk += len(got)
		default:
			op = "InvalidateAll"
			c.InvalidateAll()
			r.InvalidateAll()
			invalidations++
			inflight = inflight[:0]
		}
		probe(op, i, a)
		for _, ev := range evs {
			probe(op, i, ev.LineAddr)
		}
		probe(op, i, addr())
		d1, p1, r1, f1 := c.Occupancy()
		d2, p2, r2, f2 := r.Occupancy()
		if d1 != d2 || p1 != p2 || r1 != r2 || f1 != f2 {
			t.Fatalf("op %d (%s): Occupancy = %d/%d/%d/%d, want %d/%d/%d/%d", i, op, d1, p1, r1, f1, d2, p2, r2, f2)
		}
		if _, _, _, f := c.Occupancy(); f == 0 {
			full++
		}
		if i%500 == 0 {
			checkVictimLists(t, c)
		}
	}
	t.Logf("%d ops: %d LRU victims, %d filtered Reserve failures, %d bulk evictions, %d InvalidateAll, %d ops on a full cache",
		ops, victims, refused, bulk, invalidations, full)
	checkVictimLists(t, c)
	for s := 0; s < sets; s++ {
		for tag := 0; tag < tags; tag++ {
			probe("final", ops, (uint64(tag)*uint64(sets)+uint64(s))*uint64(g.LineSize))
		}
	}
}
