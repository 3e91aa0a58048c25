package cache

// LineTable is an open-addressing hash table keyed by line address (or any
// uint64 key other than MaxUint64), the package's one mechanism for per-line
// bookkeeping on the access path: the cache's tag index, the MSHR file, the
// L1's prefetch-usefulness sets and the L2 partitions' in-flight fetches.
// Linear probing; deletion backward-shifts the probe chain so no tombstones
// accumulate. The table doubles when an insert would push its load factor
// past 1/2, and Clear keeps its arrays, so a table that has reached its
// working size allocates nothing more. The zero value is an empty table.
type LineTable[V any] struct {
	keys  []uint64 // stored as key+1; 0 marks an empty slot
	vals  []V
	n     int
	mask  uint32
	shift uint
}

// init empties the table and sizes it to hold hint keys without growing.
func (t *LineTable[V]) init(hint int) {
	size := 4
	for size < 2*hint {
		size <<= 1
	}
	t.keys = make([]uint64, size)
	t.vals = make([]V, size)
	t.n = 0
	t.mask = uint32(size - 1)
	t.shift = uint(64 - len2(size))
}

func (t *LineTable[V]) slot(key uint64) uint32 {
	return uint32(key * 0x9E3779B97F4A7C15 >> t.shift)
}

// Len returns the number of keys in the table.
func (t *LineTable[V]) Len() int { return t.n }

// Get returns the value stored for key and whether key is present.
func (t *LineTable[V]) Get(key uint64) (V, bool) {
	if t.n > 0 {
		k := key + 1
		for i := t.slot(key); ; i = (i + 1) & t.mask {
			switch t.keys[i] {
			case k:
				return t.vals[i], true
			case 0:
				var zero V
				return zero, false
			}
		}
	}
	var zero V
	return zero, false
}

// Has reports whether key is present.
func (t *LineTable[V]) Has(key uint64) bool {
	_, ok := t.Get(key)
	return ok
}

// Put stores val for key, replacing any previous value.
func (t *LineTable[V]) Put(key uint64, val V) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	k := key + 1
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case 0:
			t.keys[i], t.vals[i] = k, val
			t.n++
			return
		case k:
			t.vals[i] = val
			return
		}
	}
}

// grow doubles the table (or sizes an empty zero-value one) and reinserts
// every key.
func (t *LineTable[V]) grow() {
	keys, vals := t.keys, t.vals
	t.init(len(keys))
	for i, k := range keys {
		if k != 0 {
			t.Put(k-1, vals[i])
		}
	}
}

// Del removes key and reports whether it was present.
func (t *LineTable[V]) Del(key uint64) bool {
	if t.n == 0 {
		return false
	}
	k := key + 1
	i := t.slot(key)
	for t.keys[i] != k {
		if t.keys[i] == 0 {
			return false
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift deletion: pull each later entry of the probe chain into
	// the hole unless its home slot lies cyclically within (hole, entry].
	j := i
	for {
		j = (j + 1) & t.mask
		if t.keys[j] == 0 {
			break
		}
		h := t.slot(t.keys[j] - 1)
		if i < j {
			if i < h && h <= j {
				continue
			}
		} else if h > i || h <= j {
			continue
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
	t.keys[i] = 0
	var zero V
	t.vals[i] = zero
	t.n--
	return true
}

// Clear removes every key, keeping the table's arrays.
func (t *LineTable[V]) Clear() {
	if t.n == 0 {
		return
	}
	clear(t.keys)
	clear(t.vals)
	t.n = 0
}
