package cluster

import (
	"container/list"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"snake/internal/stats"
)

// Tier identifies where a Store lookup was satisfied.
type Tier int

// Lookup tiers, cheapest first.
const (
	TierNone   Tier = iota // miss everywhere
	TierMemory             // resident LRU
	TierDisk               // a slot of the disk tier's slot file
)

// String names the tier for RunView.Source and metrics labels.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return "none"
	}
}

// StoreOptions configures a tiered result store.
type StoreOptions struct {
	// MaxBytes bounds the in-memory tier (entry sizes are their JSON
	// encodings plus key overhead). <= 0 means unbounded, which preserves
	// the original flat-map behavior.
	MaxBytes int64
	// Dir enables the disk tier: every admitted result is written through to
	// a fixed-size slot of the slot file here, so eviction from the memory
	// tier only drops the resident copy and slots present at startup are
	// served (the whole cache survives restarts). Empty disables it, making
	// eviction a plain drop.
	Dir string
}

// entryOverhead approximates per-entry bookkeeping (map slot, list element,
// key string) charged against MaxBytes on top of the encoded value.
const entryOverhead = 128

// The disk tier is one file of fixed-size slots after a header:
//
//	header: magic [8] | version u32 | slot size u32 | stats.LayoutFingerprint u64
//	slot:   key [64] | JSON size u32 | stats.Sim binary [stats.BinarySize] | CRC-32 u32
//
// Integers are little-endian. The CRC-32 (IEEE) covers the slot's bytes
// before it. The JSON size is the result's canonical JSON length, which the
// memory tier charges on promotion. Keys are harness.RunKey hashes: 64
// lowercase hex characters, so every slot has the same size and slot i
// starts at slotHeaderSize + i*slotSize.
const (
	slotFileName   = "results.slots"
	slotMagic      = "snakeRS\x00"
	slotVersion    = 1
	slotHeaderSize = 24
	slotKeyLen     = 64
	slotSize       = slotKeyLen + 4 + stats.BinarySize + 4
	// scanChunk is how many slots one startup read covers.
	scanChunk = 256
)

// errBadSlot reports a slot whose checksum or key does not match.
var errBadSlot = errors.New("cluster: corrupt result slot")

// Store is the content-addressed result cache behind snaked: keys are
// harness.RunKey hashes, values are completed simulation stats. Tier 1 is a
// byte-accounted LRU; tier 2 (disk, when enabled) holds every result via
// write-through, so eviction only drops the memory copy and the long tail
// of a big sweep persists cheaply while hot (bench, mech, config) shapes
// stay resident. Simulations are deterministic, so entries never expire and
// first write wins.
//
// Locking discipline: mu guards only the in-memory structures and the disk
// index. Disk I/O (slot writes and reads) always runs outside the lock — a
// write reserves its slot under the lock via the spilling set, is performed
// unlocked, then confirmed or rolled back — so memory hits never serialize
// behind another goroutine's disk traffic.
type Store struct {
	maxBytes int64
	file     *os.File // the slot file; nil when the disk tier is off. Set only by NewStore.

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	idx      map[string]*list.Element
	memBytes int64
	diskIdx  map[string]int64 // key -> its slot's index
	slots    int64            // slots reserved so far; the next write takes this index
	dBytes   int64            // slot file length: header + every slot scanned or written
	spilling map[string]bool  // keys whose slot write is in flight (unlocked I/O)
	closed   bool

	memHits, diskHits, misses int64
	evictions, spills         int64
	diskErrors                int64
}

type entry struct {
	key  string
	st   *stats.Sim
	size int64
}

// NewStore builds the store. A Dir that cannot be created, opened or
// scanned disables the disk tier (counted in DiskErrors) rather than
// failing: the store is a cache, and a cache that cannot spill still
// serves.
func NewStore(opt StoreOptions) *Store {
	s := &Store{
		maxBytes: opt.MaxBytes,
		ll:       list.New(),
		idx:      make(map[string]*list.Element),
		diskIdx:  make(map[string]int64),
		spilling: make(map[string]bool),
	}
	if opt.Dir != "" {
		if err := s.openSlots(opt.Dir); err != nil {
			s.diskErrors++
		}
	}
	return s
}

// openSlots opens (creating it if needed) the slot file in dir and rebuilds
// the disk index from it.
func (s *Store) openSlots(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, slotFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if err := s.scanSlots(f); err != nil {
		f.Close()
		clear(s.diskIdx)
		s.slots, s.dBytes = 0, 0
		return err
	}
	s.file = f
	return nil
}

// scanSlots indexes f's slots. A file without this build's header (none at
// all, or another format version, slot size or stats.Sim layout) is reset
// to an empty slot file, so an old layout is never decoded. A partial
// trailing slot, left by a write cut short, is truncated. A slot whose
// checksum or key is bad is skipped and counted in DiskErrors, and the scan
// goes on: slots are fixed-size, so one bad slot hides no other. When two
// slots hold one key the first wins.
func (s *Store) scanSlots(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	want := slotHeader()
	var got [slotHeaderSize]byte
	if size >= slotHeaderSize {
		if _, err := f.ReadAt(got[:], 0); err != nil {
			return err
		}
	}
	if got != want {
		if err := f.Truncate(0); err != nil {
			return err
		}
		_, err := f.WriteAt(want[:], 0)
		s.dBytes = slotHeaderSize
		return err
	}
	n := (size - slotHeaderSize) / slotSize
	if end := slotOffset(n); end != size {
		if err := f.Truncate(end); err != nil {
			return err
		}
	}
	buf := make([]byte, scanChunk*slotSize)
	for i := int64(0); i < n; {
		m := min(n-i, scanChunk)
		chunk := buf[:m*slotSize]
		if _, err := f.ReadAt(chunk, slotOffset(i)); err != nil {
			return err
		}
		for j := int64(0); j < m; j, i = j+1, i+1 {
			b := chunk[j*slotSize : (j+1)*slotSize]
			key := string(b[:slotKeyLen])
			if !sealed(b) || !validKey(key) {
				s.diskErrors++
				continue
			}
			if _, dup := s.diskIdx[key]; !dup {
				s.diskIdx[key] = i
			}
		}
	}
	s.slots = n
	s.dBytes = slotOffset(n)
	return nil
}

// slotHeader is the header this build writes and accepts.
func slotHeader() [slotHeaderSize]byte {
	var h [slotHeaderSize]byte
	copy(h[:], slotMagic)
	binary.LittleEndian.PutUint32(h[8:], slotVersion)
	binary.LittleEndian.PutUint32(h[12:], slotSize)
	binary.LittleEndian.PutUint64(h[16:], stats.LayoutFingerprint())
	return h
}

// slotOffset is where slot i starts in the slot file.
func slotOffset(i int64) int64 { return slotHeaderSize + i*slotSize }

// sealed reports whether slot b's CRC-32 matches its contents.
func sealed(b []byte) bool {
	return crc32.ChecksumIEEE(b[:slotSize-4]) == binary.LittleEndian.Uint32(b[slotSize-4:])
}

// validKey reports whether key can have a slot: 64 lowercase hex
// characters, the shape of a harness.RunKey hash. Other keys stay
// memory-only.
func validKey(key string) bool {
	if len(key) != slotKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get looks key up in the memory tier, then the disk tier; TierNone means
// a miss in both. A disk hit is promoted into the memory tier (the slot
// read runs outside the lock); its slot is kept, making re-eviction free.
// After Close the disk tier answers every lookup with a plain miss. ctx is
// unused: it stays only because perfbench's store probe passes one.
func (s *Store) Get(_ context.Context, key string) (*stats.Sim, Tier) {
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.ll.MoveToFront(el)
		s.memHits++
		st := el.Value.(*entry).st
		s.mu.Unlock()
		return st, TierMemory
	}
	slot, onDisk := s.diskIdx[key]
	if !onDisk || s.closed {
		s.misses++
		s.mu.Unlock()
		return nil, TierNone
	}
	s.mu.Unlock()
	st, n, err := s.readSlot(key, slot)
	s.mu.Lock()
	if err != nil {
		// ErrClosed: Close won the race with this read, and the slot is
		// fine. Any other error is a corrupt or unreadable slot: unindex it.
		// The slot stays in the file; a restart's scan skips it if its
		// checksum or key is bad.
		if !errors.Is(err, os.ErrClosed) {
			if i, ok := s.diskIdx[key]; ok && i == slot {
				delete(s.diskIdx, key)
			}
			s.diskErrors++
		}
		s.misses++
		s.mu.Unlock()
		return nil, TierNone
	}
	s.diskHits++
	evicted := s.admitLocked(key, st, n)
	writes := s.claimSpillsLocked(nil, evicted)
	s.mu.Unlock()
	s.writeSpills(writes)
	return st, TierDisk
}

// Put stores a completed result, writing through to the disk tier when
// enabled (the slot write runs outside the lock). First write wins: the
// simulations are deterministic, so a concurrent duplicate computed the
// same stats.
func (s *Store) Put(key string, st *stats.Sim) {
	// The JSON encoding is only measured: it is what the memory tier charges.
	b, err := json.Marshal(st)
	size := int64(len(b))
	s.mu.Lock()
	if err != nil {
		s.diskErrors++
	}
	evicted := s.admitLocked(key, st, size)
	var writes []spillJob
	if slot, ok := s.claimSpillLocked(key); ok {
		writes = append(writes, spillJob{key: key, st: st, size: size, slot: slot})
	}
	writes = s.claimSpillsLocked(writes, evicted)
	s.mu.Unlock()
	s.writeSpills(writes)
}

// spillJob is one reserved write-through: key's stats, their JSON size, and
// the slot reserved for them.
type spillJob struct {
	key  string
	st   *stats.Sim
	size int64
	slot int64
}

// claimSpillLocked reserves the write-through of key and returns the slot
// to write. False when the disk tier is off or closed, the key cannot have
// a slot, the key is already persisted, or another goroutine's write is in
// flight; otherwise the caller must write the slot outside the lock and
// report via finishSpill.
func (s *Store) claimSpillLocked(key string) (int64, bool) {
	if s.file == nil || s.closed || s.spilling[key] || !validKey(key) {
		return 0, false
	}
	if _, ok := s.diskIdx[key]; ok {
		return 0, false
	}
	s.spilling[key] = true
	slot := s.slots
	s.slots++
	return slot, true
}

// claimSpillsLocked reserves writes for evicted entries that are not yet on
// disk. With write-through they normally already are; this covers an
// earlier write that failed transiently. An entry evicted while its
// original write is still in flight is skipped — if that write then fails
// the result is lost from both tiers, which is acceptable for a cache.
func (s *Store) claimSpillsLocked(writes []spillJob, evicted []*entry) []spillJob {
	for _, e := range evicted {
		if slot, ok := s.claimSpillLocked(e.key); ok {
			size := e.size - int64(len(e.key)) - entryOverhead // the JSON size admitLocked charged
			writes = append(writes, spillJob{key: e.key, st: e.st, size: size, slot: slot})
		}
	}
	return writes
}

// writeSpills performs reserved slot writes; the caller must not hold mu.
func (s *Store) writeSpills(writes []spillJob) {
	for _, w := range writes {
		s.finishSpill(w.key, w.slot, s.writeSlot(w))
	}
}

// writeSlot encodes w into its reserved slot with one positioned write. The
// caller must not hold mu.
func (s *Store) writeSlot(w spillJob) error {
	var b [slotSize]byte
	copy(b[:], w.key)
	binary.LittleEndian.PutUint32(b[slotKeyLen:], uint32(w.size))
	w.st.PutBinary(b[slotKeyLen+4:])
	binary.LittleEndian.PutUint32(b[slotSize-4:], crc32.ChecksumIEEE(b[:slotSize-4]))
	_, err := s.file.WriteAt(b[:], slotOffset(w.slot))
	return err
}

// finishSpill confirms or rolls back a reserved slot write. A failed write
// leaves a dead slot: it is never indexed, and a restart skips it.
func (s *Store) finishSpill(key string, slot int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.spilling, key)
	if err != nil {
		s.diskErrors++
		return
	}
	s.diskIdx[key] = slot
	s.dBytes = max(s.dBytes, slotOffset(slot+1))
	s.spills++
}

// readSlot loads key's stats from slot with one positioned read, checking
// the slot's checksum and key first. It returns the stats and their JSON
// size. The caller must not hold mu.
func (s *Store) readSlot(key string, slot int64) (*stats.Sim, int64, error) {
	var b [slotSize]byte
	if _, err := s.file.ReadAt(b[:], slotOffset(slot)); err != nil {
		return nil, 0, err
	}
	if !sealed(b[:]) || string(b[:slotKeyLen]) != key {
		return nil, 0, errBadSlot
	}
	st := new(stats.Sim)
	st.ReadBinary(b[slotKeyLen+4:])
	return st, int64(binary.LittleEndian.Uint32(b[slotKeyLen:])), nil
}

// Close closes the slot file. Afterwards disk-tier lookups are plain misses
// and new results stay in memory; the memory tier keeps serving. Close is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if s.file == nil || already {
		return nil
	}
	return s.file.Close()
}

// admitLocked inserts into the memory tier and evicts from the cold end
// until the byte budget holds again, returning the evicted entries so the
// caller can re-spill any whose write-through failed. encoded is the size
// of the value's canonical JSON encoding. The entry being admitted is never
// the eviction victim, so even an over-budget result serves its job.
func (s *Store) admitLocked(key string, st *stats.Sim, encoded int64) []*entry {
	if el, ok := s.idx[key]; ok {
		s.ll.MoveToFront(el)
		return nil
	}
	e := &entry{key: key, st: st, size: encoded + int64(len(key)) + entryOverhead}
	s.idx[key] = s.ll.PushFront(e)
	s.memBytes += e.size
	var evicted []*entry
	for s.maxBytes > 0 && s.memBytes > s.maxBytes && s.ll.Len() > 1 {
		evicted = append(evicted, s.evictLocked(s.ll.Back()))
	}
	return evicted
}

// evictLocked removes the given element from the memory tier and returns
// its entry. With the disk tier enabled the entry was normally written
// through at admission, so this only drops the resident copy; the caller
// re-claims a spill for it when that write failed.
func (s *Store) evictLocked(el *list.Element) *entry {
	e := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.idx, e.key)
	s.memBytes -= e.size
	s.evictions++
	return e
}

// StoreStats is a consistent snapshot of the store for metrics.
type StoreStats struct {
	MemEntries, MemBytes   int64
	DiskEntries, DiskBytes int64 // DiskBytes: the slot file's length, dead slots included
	Entries                int64 // unique keys resident in memory ∪ disk
	MemHits, DiskHits      int64
	Misses                 int64
	Evictions, Spills      int64
	DiskErrors             int64
}

// Snap returns the current tier gauges and counters.
func (s *Store) Snap() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		MemEntries: int64(s.ll.Len()), MemBytes: s.memBytes,
		DiskEntries: int64(len(s.diskIdx)), DiskBytes: s.dBytes,
		MemHits: s.memHits, DiskHits: s.diskHits, Misses: s.misses,
		Evictions: s.evictions, Spills: s.spills,
		DiskErrors: s.diskErrors,
	}
	st.Entries = st.MemEntries
	for k := range s.diskIdx {
		if _, ok := s.idx[k]; !ok {
			st.Entries++
		}
	}
	return st
}
