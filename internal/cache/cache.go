// Package cache implements the on-chip cache substrate: a set-associative
// cache with LRU replacement, an MSHR file with merge capability, a miss
// queue, and the L1 controller used by the simulator.
//
// The L1 controller supports Snake's decoupled unified-cache organization
// (§3.2 of the paper): prefetched lines and demand (L1 data) lines share the
// unified storage but are distinguished by a per-line flag, each side may
// grow until the space is full, demand hits on prefetched lines "transfer"
// the line by flipping the flag, and eviction between the two classes follows
// the paper's 80%-transferred heuristic.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"snake/internal/config"
)

// Class tags the owner of a cache line in the decoupled organization.
type Class uint8

// Line classes.
const (
	ClassData     Class = iota // normal L1 data
	ClassPrefetch              // line brought in by the prefetcher
)

// line is one cache line's metadata.
type line struct {
	tag     uint64
	lastUse int64
	// prev/next link a valid line into its set's victim list (see
	// Cache.lists) as positions in Cache.lines; -1 ends the list. They are
	// meaningless while the line is invalid or reserved.
	prev, next int32
	valid      bool
	reserved   bool // fill in flight
	class      Class
	touched    bool // demanded at least once since fill (for useful-prefetch accounting)
}

// group is the line's victim-list index, class<<1 | touched: the two inputs
// of a VictimFilter.
func (ln *line) group() int {
	g := int(ln.class) << 1
	if ln.touched {
		g |= 1
	}
	return g
}

// Cache is a set-associative cache with per-line class flags. Lines are
// stored in one contiguous array (set s occupies lines[s*ways:(s+1)*ways]);
// lookup, free-way search and LRU victim selection are all O(1) in the
// associativity, which matters because the unified L1 is 256-way.
type Cache struct {
	geom     config.CacheGeom
	lines    []line
	ways     int
	setShift uint
	setBits  uint
	setMask  uint64

	// idx maps a line's set+tag key to its position in lines, so lookups are
	// O(1) instead of an O(ways) set scan — the unified L1 is 256-way, so
	// scans dominated the simulator's CPU profile. It holds exactly the
	// lines that are valid or reserved, so sized at construction for the
	// line count it never grows.
	idx LineTable[int32]

	// occ is a per-set bitmap of occupied (valid or reserved) ways; bits
	// beyond ways in a set's last word are permanently set so a zero bit
	// always names a free way. occWPS is words per set.
	occ    []uint64
	occWPS int

	// lists holds each set's four victim lists, one per line group
	// (class<<1 | touched), at lists[set<<2|group]. A list links exactly the
	// set's valid, unreserved lines of its group in ascending (lastUse, way)
	// order, so the LRU line among any combination of groups is the smallest
	// of at most four heads.
	lists []victimList

	// classBits[class] is a bitmap over lines (bit pos&63 of word pos>>6)
	// of the valid lines of that class, so EvictLRUOfClass collects its
	// candidates in line order without reading every line.
	classBits [2][]uint64

	// bulk is EvictLRUOfClass's reusable scratch.
	bulk bulkScratch

	// Occupancy counters for the decoupling policy.
	nData     int
	nPrefetch int
	nReserved int
}

// New builds a cache from the geometry. It panics on invalid geometry; use
// geom.Validate beforehand for recoverable checking.
func New(geom config.CacheGeom) *Cache {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	nsets := geom.Sets()
	ls := geom.LineSize
	shift := uint(0)
	for 1<<shift < ls {
		shift++
	}
	wps := (geom.Ways + 63) / 64
	c := &Cache{
		geom:     geom,
		lines:    make([]line, nsets*geom.Ways),
		ways:     geom.Ways,
		setShift: shift,
		setBits:  uint(len2(nsets)),
		setMask:  uint64(nsets - 1),
		occ:      make([]uint64, nsets*wps),
		occWPS:   wps,
		lists:    make([]victimList, nsets*4),
	}
	words := (len(c.lines) + 63) / 64
	c.classBits = [2][]uint64{make([]uint64, words), make([]uint64, words)}
	c.idx.init(len(c.lines))
	c.resetOcc()
	c.resetLists()
	return c
}

// victimList is one (set, group) victim list: the positions in
// Cache.lines of its least and most recently used lines, -1 when empty.
type victimList struct{ head, tail int32 }

func (c *Cache) resetLists() {
	for i := range c.lists {
		c.lists[i] = victimList{-1, -1}
	}
}

// before reports whether the line at position a sorts before the line at b
// in their set's victim order: older lastUse first, lower way on ties.
func (c *Cache) before(a, b int32) bool {
	ka, kb := c.lines[a].lastUse, c.lines[b].lastUse
	return ka < kb || ka == kb && a < b
}

// link inserts the valid line at pos into its set's victim list for its
// group. The search walks back from the most recently used end: cycles
// only move forward within a run, so it stops at the first compare except
// behind lines last used in the same cycle at a higher way.
func (c *Cache) link(pos int32, set int) {
	ln := &c.lines[pos]
	vl := &c.lists[set<<2|ln.group()]
	prev := vl.tail
	for prev >= 0 && c.before(pos, prev) {
		prev = c.lines[prev].prev
	}
	var next int32
	if prev < 0 {
		next = vl.head
		vl.head = pos
	} else {
		next = c.lines[prev].next
		c.lines[prev].next = pos
	}
	if next < 0 {
		vl.tail = pos
	} else {
		c.lines[next].prev = pos
	}
	ln.prev, ln.next = prev, next
}

// unlink removes the valid line at pos from its group's victim list; the
// line's group must not have changed since it was linked.
func (c *Cache) unlink(pos int32, set int) {
	ln := &c.lines[pos]
	vl := &c.lists[set<<2|ln.group()]
	if ln.prev < 0 {
		vl.head = ln.next
	} else {
		c.lines[ln.prev].next = ln.next
	}
	if ln.next < 0 {
		vl.tail = ln.prev
	} else {
		c.lines[ln.next].prev = ln.prev
	}
}

// markClass sets or clears the line at pos in class's bitmap.
func (c *Cache) markClass(pos int32, class Class, valid bool) {
	bit := uint64(1) << (uint(pos) & 63)
	if valid {
		c.classBits[class][pos>>6] |= bit
	} else {
		c.classBits[class][pos>>6] &^= bit
	}
}

// resetOcc clears the occupancy bitmap, re-marking the padding bits past the
// last way of each set as permanently occupied.
func (c *Cache) resetOcc() {
	for i := range c.occ {
		c.occ[i] = 0
	}
	if r := c.ways & 63; r != 0 {
		pad := ^uint64(0) << uint(r)
		nsets := len(c.lines) / c.ways
		for s := 0; s < nsets; s++ {
			c.occ[(s+1)*c.occWPS-1] |= pad
		}
	}
}

func (c *Cache) occMark(s, w int, occupied bool) {
	bit := uint64(1) << (uint(w) & 63)
	word := &c.occ[s*c.occWPS+(w>>6)]
	if occupied {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// firstFree returns the lowest unoccupied way of set s, or -1 when full.
func (c *Cache) firstFree(s int) int {
	base := s * c.occWPS
	for wi := 0; wi < c.occWPS; wi++ {
		if free := ^c.occ[base+wi]; free != 0 {
			return wi<<6 + bits.TrailingZeros64(free)
		}
	}
	return -1
}

// LineAddr returns addr truncated to its cache-line base address.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.geom.LineSize) - 1)
}

// Geom returns the cache geometry.
func (c *Cache) Geom() config.CacheGeom { return c.geom }

// Lines returns the total number of lines in the cache.
func (c *Cache) Lines() int { return c.geom.Lines() }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	la := addr >> c.setShift
	return int(la & c.setMask), la >> c.setBits
}

// addrOf reconstructs a line base address from a set index and tag.
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.setShift
}

// len2 returns log2(n) for power-of-two n.
func len2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// findPos returns the index in lines of the line holding addr (valid or
// reserved), or -1.
func (c *Cache) findPos(addr uint64) int32 {
	if pos, ok := c.idx.Get(addr >> c.setShift); ok {
		return pos
	}
	return -1
}

// findLine returns the line holding addr (valid or reserved), or nil.
func (c *Cache) findLine(addr uint64) *line {
	pos := c.findPos(addr)
	if pos < 0 {
		return nil
	}
	return &c.lines[pos]
}

// ProbeResult describes the state of a looked-up line.
type ProbeResult struct {
	Present  bool  // valid data in the cache
	Reserved bool  // fill in flight
	Class    Class // meaningful when Present
	Touched  bool
}

// Probe looks up addr without changing replacement state.
func (c *Cache) Probe(addr uint64) ProbeResult {
	ln := c.findLine(addr)
	if ln == nil {
		return ProbeResult{}
	}
	return ProbeResult{Present: ln.valid, Reserved: ln.reserved, Class: ln.class, Touched: ln.touched}
}

// touchLine applies Touch's demand-hit update to the valid line at pos in
// set.
func (c *Cache) touchLine(pos int32, set int, cycle int64) (transferred bool) {
	ln := &c.lines[pos]
	wentBack := cycle < ln.lastUse
	ln.lastUse = cycle
	if ln.touched && ln.class == ClassData {
		// A re-touched data line stays in its group. Unless the cycle went
		// back it still sorts after its predecessor, so it keeps its place
		// when it also sorts before its successor — always when it is
		// already the most recently used line.
		if !wentBack && (ln.next < 0 || c.before(pos, ln.next)) {
			return false
		}
		c.unlink(pos, set)
	} else {
		c.unlink(pos, set)
		ln.touched = true
		if ln.class == ClassPrefetch {
			ln.class = ClassData
			c.nPrefetch--
			c.nData++
			c.markClass(pos, ClassPrefetch, false)
			c.markClass(pos, ClassData, true)
			transferred = true
		}
	}
	c.link(pos, set)
	return transferred
}

// Touch performs a demand hit on addr: updates LRU and marks touched. If the
// line is in the prefetch class, it is transferred to the data class (the
// flag flip of §3.2) and transferred=true is returned. ok is false when the
// line is not present.
func (c *Cache) Touch(addr uint64, cycle int64) (transferred, wasPrefetch, ok bool) {
	pos := c.findPos(addr)
	if pos < 0 || !c.lines[pos].valid {
		return false, false, false
	}
	s, _ := c.index(addr)
	transferred = c.touchLine(pos, s, cycle)
	return transferred, transferred, true
}

// Hit combines Probe and Touch in a single lookup — the demand-access fast
// path. It returns the line's probe state as of before the call; when the
// line is present the LRU/touched/class-transfer update of Touch is applied
// in place.
func (c *Cache) Hit(addr uint64, cycle int64) ProbeResult {
	pos := c.findPos(addr)
	if pos < 0 {
		return ProbeResult{}
	}
	ln := &c.lines[pos]
	p := ProbeResult{Present: ln.valid, Reserved: ln.reserved, Class: ln.class, Touched: ln.touched}
	if ln.valid {
		s, _ := c.index(addr)
		c.touchLine(pos, s, cycle)
	}
	return p
}

// Occupancy returns the current line counts by state.
func (c *Cache) Occupancy() (data, prefetch, reserved, free int) {
	total := c.Lines()
	return c.nData, c.nPrefetch, c.nReserved, total - c.nData - c.nPrefetch - c.nReserved
}

// Reserve claims a line for an in-flight fill of addr with the given class
// and reports what it displaced. The way is chosen inside addr's set:
//
//  1. the lowest free (invalid, unreserved) way, if any: evicted is the zero
//     EvictInfo;
//  2. otherwise the least recently used valid line the victim filter admits
//     — smallest lastUse, lowest way on ties — which is evicted and
//     described by evicted (Valid set, with its class, touched flag and
//     line address, for prefetch-accuracy accounting);
//  3. otherwise ok=false and nothing changes: addr is already present or
//     reserved, every way has a fill in flight, or the filter admits no
//     valid line of the set.
//
// The filter depends only on (class, touched), so it is folded into a mask
// of admitted groups and the victim is the oldest head among the admitted
// groups' victim lists (see Cache.lists); a filter that admits no group,
// such as neverEvict, fails right after the free-way check without looking
// at any line. Reserved lines are in no list and are never victims.
func (c *Cache) Reserve(addr uint64, class Class, cycle int64, filter VictimFilter) (evicted EvictInfo, ok bool) {
	s, tag := c.index(addr)
	// Already present or reserved? Caller should have probed; treat as
	// failure.
	if c.idx.Has(addr >> c.setShift) {
		return EvictInfo{}, false
	}
	base := s * c.ways
	// Invalid ways win over any victim; the bitmap gives the lowest one
	// without touching line metadata.
	if w := c.firstFree(s); w >= 0 {
		c.install(int32(base+w), s, tag, class)
		return EvictInfo{}, true
	}
	allowed := 0xF
	if filter != nil {
		allowed = 0
		for g := 0; g < 4; g++ {
			if filter(Class(g>>1), g&1 == 1) {
				allowed |= 1 << g
			}
		}
	}
	victim := int32(-1)
	for g, vl := range c.lists[s<<2 : s<<2+4] {
		if allowed&(1<<g) != 0 && vl.head >= 0 && (victim < 0 || c.before(vl.head, victim)) {
			victim = vl.head
		}
	}
	if victim < 0 {
		return EvictInfo{}, false
	}
	ev := c.evictAt(victim, s)
	c.install(victim, s, tag, class)
	return ev, true
}

// EvictInfo describes an evicted line.
type EvictInfo struct {
	Valid    bool
	Class    Class
	Touched  bool
	LineAddr uint64 // base address of the evicted line
}

// install reserves the free line at pos in set for tag.
func (c *Cache) install(pos int32, set int, tag uint64, class Class) {
	ln := &c.lines[pos]
	ln.tag = tag
	ln.valid = false
	ln.reserved = true
	ln.class = class
	ln.touched = false
	c.nReserved++
	c.occMark(set, int(pos)-set*c.ways, true)
	c.idx.Put(tag<<c.setBits|uint64(set), pos)
}

// evictAt invalidates the valid line at pos in set.
func (c *Cache) evictAt(pos int32, set int) EvictInfo {
	ln := &c.lines[pos]
	ev := EvictInfo{Valid: true, Class: ln.class, Touched: ln.touched, LineAddr: c.addrOf(set, ln.tag)}
	if ln.class == ClassPrefetch {
		c.nPrefetch--
	} else {
		c.nData--
	}
	c.unlink(pos, set)
	c.markClass(pos, ln.class, false)
	ln.valid = false
	ln.reserved = false
	c.occMark(set, int(pos)-set*c.ways, false)
	c.idx.Del(ln.tag<<c.setBits | uint64(set))
	return ev
}

// Fill completes an in-flight fill for addr. ok is false if no reservation
// for addr exists (e.g. the reservation was squashed).
func (c *Cache) Fill(addr uint64, cycle int64) bool {
	pos := c.findPos(addr)
	if pos < 0 {
		return false
	}
	ln := &c.lines[pos]
	if !ln.reserved {
		return false
	}
	ln.reserved = false
	ln.valid = true
	ln.lastUse = cycle
	c.nReserved--
	if ln.class == ClassPrefetch {
		c.nPrefetch++
	} else {
		c.nData++
	}
	s, _ := c.index(addr)
	c.link(pos, s)
	c.markClass(pos, ln.class, true)
	return true
}

// VictimFilter restricts which lines may be evicted; it receives the line's
// class and whether it has been demand-touched.
type VictimFilter func(class Class, touched bool) bool

// bulkScratch holds EvictLRUOfClass's buffers, reused across calls.
type bulkScratch struct {
	cands []int32 // candidate positions in Cache.lines
	keys  []int64 // lastUse of the candidate now in each slot; MaxInt64 once taken
	tree  []int32 // min segment tree over keys: node k holds its leftmost minimal slot
	out   []EvictInfo
}

// minSlot returns whichever of slots x < y holds the smaller key, x on ties.
func (b *bulkScratch) minSlot(x, y int32) int32 {
	if b.keys[y] < b.keys[x] {
		return y
	}
	return x
}

// setKey stores key in slot p and repairs the tree above it.
func (b *bulkScratch) setKey(p int32, key int64) {
	b.keys[p] = key
	for k := (len(b.tree)/2 + int(p)) >> 1; k >= 1; k >>= 1 {
		b.tree[k] = b.minSlot(b.tree[2*k], b.tree[2*k+1])
	}
}

// EvictLRUOfClass evicts up to n valid lines of the given class, choosing
// globally least-recently-used first, and returns per-line info for
// accounting (used by the §3.2 "free up 25% of the unified cache" bulk
// eviction). The returned slice is scratch owned by the cache, valid until
// the next call.
//
// The choice among lines tied on lastUse is that of a swap-based partial
// selection sort over the candidates in line order: each step takes the
// first minimal candidate at or after position i and swaps it with the one
// at i, which moves that one behind equal candidates. That order is
// deliberate — it is the simulator's recorded behaviour — and is replayed
// exactly with a min segment tree over (lastUse, position), in
// O(lines/64 + candidates + n log candidates) instead of
// O(n × candidates).
func (c *Cache) EvictLRUOfClass(class Class, n int) []EvictInfo {
	b := &c.bulk
	b.out = b.out[:0]
	if n <= 0 {
		return b.out
	}
	b.cands = b.cands[:0]
	for wi, word := range c.classBits[class] {
		for ; word != 0; word &= word - 1 {
			b.cands = append(b.cands, int32(wi<<6+bits.TrailingZeros64(word)))
		}
	}
	m := len(b.cands)
	if n > m {
		n = m
	}
	if n == 0 {
		return b.out
	}
	size := 1
	for size < m {
		size <<= 1
	}
	if cap(b.keys) < size {
		b.keys, b.tree = make([]int64, size), make([]int32, 2*size)
	}
	b.keys, b.tree = b.keys[:size], b.tree[:2*size]
	for p := range b.keys {
		if p < m {
			b.keys[p] = c.lines[b.cands[p]].lastUse
		} else {
			b.keys[p] = math.MaxInt64
		}
	}
	for p := 0; p < size; p++ {
		b.tree[size+p] = int32(p)
	}
	for k := size - 1; k >= 1; k-- {
		b.tree[k] = b.minSlot(b.tree[2*k], b.tree[2*k+1])
	}
	for i := int32(0); i < int32(n); i++ {
		// Taken slots hold MaxInt64, so the root is the first minimal
		// candidate at or after i.
		j := b.tree[1]
		pos := b.cands[j]
		if j != i {
			b.cands[j] = b.cands[i]
			b.setKey(j, b.keys[i])
		}
		b.setKey(i, math.MaxInt64)
		b.out = append(b.out, c.evictAt(pos, int(pos)/c.ways))
	}
	return b.out
}

// InvalidateAll clears the cache (used between kernels).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.nData, c.nPrefetch, c.nReserved = 0, 0, 0
	c.resetOcc()
	c.resetLists()
	clear(c.classBits[ClassData])
	clear(c.classBits[ClassPrefetch])
	c.idx.Clear()
}
