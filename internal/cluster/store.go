package cluster

import (
	"container/list"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"snake/internal/stats"
)

// Tier identifies where a Store lookup was satisfied.
type Tier int

// Lookup tiers, cheapest first.
const (
	TierNone   Tier = iota // miss everywhere
	TierMemory             // resident LRU
	TierDisk               // content-addressed spill file
	TierPeer               // fetched from the owning peer's cache
)

// String names the tier for RunView.Source and metrics labels.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	case TierPeer:
		return "peer"
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
	// a content-addressed file here, so eviction from the memory tier only
	// drops the resident copy and files present at startup are served (the
	// whole cache survives restarts). Empty disables it, making eviction a
	// plain drop.
	Dir string
	// PeerFetch, when non-nil, is the tier-3 lookup consulted after a local
	// miss (typically Cluster.FetchResult). A hit is admitted to the memory
	// tier.
	PeerFetch func(ctx context.Context, key string) (*stats.Sim, bool)
}

// entryOverhead approximates per-entry bookkeeping (map slot, list element,
// key string) charged against MaxBytes on top of the encoded value.
const entryOverhead = 128

// Store is the content-addressed result cache behind snaked: keys are
// harness.RunKey hashes, values are completed simulation stats. Tier 1 is a
// byte-accounted LRU; tier 2 (disk, when enabled) holds every result via
// write-through, so eviction only drops the memory copy and the long tail
// of a big sweep persists cheaply while hot (bench, mech, config) shapes
// stay resident; tier 3 asks the owning peer. Simulations are
// deterministic, so entries never expire and first write wins.
//
// Locking discipline: mu guards only the in-memory structures and the disk
// index. Disk I/O (spill writes, reads, deletes) always runs outside the
// lock — a write is reserved under the lock via the spilling set, performed
// unlocked, then confirmed or rolled back — so memory hits never serialize
// behind another goroutine's disk traffic.
type Store struct {
	maxBytes  int64
	dir       string
	peerFetch func(ctx context.Context, key string) (*stats.Sim, bool)

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	idx      map[string]*list.Element
	memBytes int64
	diskIdx  map[string]int64 // key -> spill file size in bytes
	dBytes   int64
	spilling map[string]bool // keys whose spill write is in flight (unlocked I/O)

	memHits, diskHits, peerHits, misses int64
	evictions, spills                   int64
	diskErrors                          int64
}

type entry struct {
	key  string
	st   *stats.Sim
	size int64
}

// NewStore builds the store. A Dir that cannot be created or scanned
// disables the disk tier (counted in DiskErrors) rather than failing: the
// store is a cache, and a cache that cannot spill still serves.
func NewStore(opt StoreOptions) *Store {
	s := &Store{
		maxBytes:  opt.MaxBytes,
		dir:       opt.Dir,
		peerFetch: opt.PeerFetch,
		ll:        list.New(),
		idx:       make(map[string]*list.Element),
		diskIdx:   make(map[string]int64),
		spilling:  make(map[string]bool),
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			s.dir = ""
			s.diskErrors++
			return s
		}
		ents, err := os.ReadDir(s.dir)
		if err != nil {
			s.dir = ""
			s.diskErrors++
			return s
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".json") {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			s.diskIdx[strings.TrimSuffix(name, ".json")] = info.Size()
			s.dBytes += info.Size()
		}
	}
	return s
}

// SetPeerFetch installs the tier-3 lookup after construction (the service
// wires the cluster in once both exist).
func (s *Store) SetPeerFetch(f func(ctx context.Context, key string) (*stats.Sim, bool)) {
	s.peerFetch = f
}

// Get looks key up through all three tiers. The returned Tier reports which
// one answered; TierNone means a miss everywhere.
func (s *Store) Get(ctx context.Context, key string) (*stats.Sim, Tier) {
	if st, tier := s.GetLocal(key); st != nil {
		return st, tier
	}
	if s.peerFetch != nil {
		if st, ok := s.peerFetch(ctx, key); ok {
			s.mu.Lock()
			s.peerHits++
			s.mu.Unlock()
			s.Put(key, st)
			return st, TierPeer
		}
	}
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, TierNone
}

// GetLocal looks key up in the local tiers only (memory, then disk) — the
// peer cache endpoint serves from this, so cross-node lookups never
// recurse. A disk hit is promoted into the memory tier (the spill read runs
// outside the lock); its spill file is kept, making re-eviction free.
func (s *Store) GetLocal(key string) (*stats.Sim, Tier) {
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.ll.MoveToFront(el)
		s.memHits++
		st := el.Value.(*entry).st
		s.mu.Unlock()
		return st, TierMemory
	}
	_, onDisk := s.diskIdx[key]
	s.mu.Unlock()
	if !onDisk {
		return nil, TierNone
	}
	st, n, err := s.readSpill(key)
	if err != nil {
		// Corrupt or unreadable spill: drop it and treat as a miss.
		s.dropSpill(key)
		return nil, TierNone
	}
	s.mu.Lock()
	s.diskHits++
	evicted := s.admitLocked(key, st, n)
	writes := s.claimSpillsLocked(nil, evicted)
	s.mu.Unlock()
	s.writeSpills(writes)
	return st, TierDisk
}

// Put stores a completed result, writing through to the disk tier when
// enabled (the file write runs outside the lock). First write wins: the
// simulations are deterministic, so a concurrent duplicate computed the
// same stats.
func (s *Store) Put(key string, st *stats.Sim) {
	b, err := json.Marshal(st)
	if err != nil {
		b = nil
	}
	s.mu.Lock()
	if err != nil {
		s.diskErrors++
	}
	evicted := s.admitLocked(key, st, int64(len(b)))
	var writes []spillJob
	if b != nil && s.claimSpillLocked(key) {
		writes = append(writes, spillJob{key: key, data: b})
	}
	writes = s.claimSpillsLocked(writes, evicted)
	s.mu.Unlock()
	s.writeSpills(writes)
}

// spillJob is one reserved write-through: the data to persist for key, with
// the raw encoding when the caller already has it.
type spillJob struct {
	key  string
	data []byte // pre-encoded; nil means encode st
	st   *stats.Sim
}

// claimSpillLocked reserves the write-through of key. True means the caller
// must write the spill file outside the lock and report via finishSpill;
// false when the disk tier is off, the key is already persisted, or another
// goroutine's write is in flight.
func (s *Store) claimSpillLocked(key string) bool {
	if s.dir == "" || s.spilling[key] {
		return false
	}
	if _, ok := s.diskIdx[key]; ok {
		return false
	}
	s.spilling[key] = true
	return true
}

// claimSpillsLocked reserves writes for evicted entries that are not yet on
// disk. With write-through they normally already are; this covers an
// earlier write that failed transiently. An entry evicted while its
// original write is still in flight is skipped — if that write then fails
// the result is lost from both tiers, which is acceptable for a cache.
func (s *Store) claimSpillsLocked(writes []spillJob, evicted []*entry) []spillJob {
	for _, e := range evicted {
		if s.claimSpillLocked(e.key) {
			writes = append(writes, spillJob{key: e.key, st: e.st})
		}
	}
	return writes
}

// writeSpills performs reserved spill writes; the caller must not hold mu.
func (s *Store) writeSpills(writes []spillJob) {
	for _, w := range writes {
		b := w.data
		if b == nil {
			var err error
			if b, err = json.Marshal(w.st); err != nil {
				s.finishSpill(w.key, 0, err)
				continue
			}
		}
		n, err := s.writeSpill(w.key, b)
		s.finishSpill(w.key, n, err)
	}
}

// finishSpill confirms or rolls back a reserved spill write.
func (s *Store) finishSpill(key string, n int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.spilling, key)
	if err != nil {
		s.diskErrors++
		return
	}
	s.diskIdx[key] = n
	s.dBytes += n
	s.spills++
}

// admitLocked inserts into the memory tier and evicts from the cold end
// until the byte budget holds again, returning the evicted entries so the
// caller can re-spill any whose write-through failed. encoded is the size
// of the value's JSON encoding (what a spill file holds). The entry being
// admitted is never the eviction victim, so even an over-budget result
// serves its job.
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

// spillPath is the content-addressed file for key. Keys are hex hashes; any
// other shape is refused so a crafted key cannot escape the cache dir.
func (s *Store) spillPath(key string) (string, bool) {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", false
	}
	return filepath.Join(s.dir, key+".json"), true
}

// writeSpill persists pre-encoded bytes for key (tmp + atomic rename). The
// caller must not hold mu; s.dir is immutable after construction.
func (s *Store) writeSpill(key string, b []byte) (int64, error) {
	path, ok := s.spillPath(key)
	if !ok {
		return 0, os.ErrInvalid
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return int64(len(b)), nil
}

// readSpill loads key's spill file, returning the decoded stats and the
// file's byte length. The caller must not hold mu.
func (s *Store) readSpill(key string) (*stats.Sim, int64, error) {
	path, ok := s.spillPath(key)
	if !ok {
		return nil, 0, os.ErrInvalid
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	st := new(stats.Sim)
	if err := json.Unmarshal(b, st); err != nil {
		return nil, 0, err
	}
	return st, int64(len(b)), nil
}

// dropSpill removes a corrupt or unreadable spill file and its accounting;
// the file delete runs outside the lock.
func (s *Store) dropSpill(key string) {
	s.mu.Lock()
	if n, ok := s.diskIdx[key]; ok {
		delete(s.diskIdx, key)
		s.dBytes -= n
	}
	s.diskErrors++
	s.mu.Unlock()
	if path, ok := s.spillPath(key); ok {
		os.Remove(path)
	}
}

// encodedSize is the byte cost charged for one result: its canonical JSON
// encoding, which is also exactly what a spill file holds.
func encodedSize(st *stats.Sim) int64 {
	b, err := json.Marshal(st)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// StoreStats is a consistent snapshot of the store for metrics.
type StoreStats struct {
	MemEntries, MemBytes   int64
	DiskEntries, DiskBytes int64
	Entries                int64 // unique keys resident in memory ∪ disk
	MemHits, DiskHits      int64
	PeerHits, Misses       int64
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
		MemHits: s.memHits, DiskHits: s.diskHits,
		PeerHits: s.peerHits, Misses: s.misses,
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
