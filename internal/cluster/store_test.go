package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"snake/internal/stats"
)

// encodedSize is the byte cost the memory tier charges for one result's
// value: its canonical JSON encoding.
func encodedSize(st *stats.Sim) int64 {
	b, err := json.Marshal(st)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// slotPath is the disk tier's slot file in dir.
func slotPath(dir string) string { return filepath.Join(dir, slotFileName) }

// slotCount reads how many whole slots the slot file in dir holds, failing
// the test if the file is not header + whole slots.
func slotCount(t *testing.T, dir string) int64 {
	t.Helper()
	info, err := os.Stat(slotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	n := (info.Size() - slotHeaderSize) / slotSize
	if slotOffset(n) != info.Size() {
		t.Fatalf("slot file is %d bytes: not a header plus whole %d-byte slots", info.Size(), slotSize)
	}
	return n
}

// patchSlotFile rewrites the slot file in dir through f.
func patchSlotFile(t *testing.T, dir string, f func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(slotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(slotPath(dir), f(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// filled writes sims for keys 1..n through a store on dir and closes it.
func filled(t *testing.T, dir string, n int) {
	t.Helper()
	s := NewStore(StoreOptions{Dir: dir})
	for i := 1; i <= n; i++ {
		s.Put(key(byte(i)), sampleSim(int64(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// sampleSim builds a fully populated stats.Sim so round-trip tests cover
// every field, including a float that exercises encoding precision.
func sampleSim(seed int64) *stats.Sim {
	st := &stats.Sim{
		Cycles: 100000 + seed, Insts: 250000 + seed, Loads: 40000 + seed, Stores: 9000 + seed,
		ResFailMissQueue: 11 + seed, ResFailMSHR: 7, ResFailVictim: 3,
		StallMemory: 52000, StallOther: 8000,
		IcntBytes: 1 << 22, IcntPeakBytes: 1 << 26,
		EnergyJ: 0.12345678901234567 * float64(seed+1),
		L2Hits:  1234, L2Misses: 567, L2Merges: 89,
		DRAMReads: 567, DRAMRowHits: 400, DRAMRowMisses: 167,
		Pf: stats.Prefetch{
			Issued: 9000 + seed, Dropped: 120, UsefulTimely: 7000, UsefulLate: 500,
			EarlyEvicted: 60, Unused: 400, Transferred: 6500, ThrottleCycles: 1500,
			Covered: 7700, CoveredTimely: 7000,
		},
	}
	st.L1 = [5]int64{30000, 5000, 2000, 2500, 500}
	return st
}

func key(i byte) string {
	b := make([]byte, 64)
	for j := range b {
		b[j] = "0123456789abcdef"[int(i+byte(j))%16]
	}
	return string(b)
}

// TestStoreDiskRoundTrip: results are written through to the disk tier, so
// eviction only drops the memory copy and a disk read returns stats
// bit-identical to what was stored.
func TestStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Budget below two entries: the second Put must evict the first from
	// memory (both are on disk from write-through).
	s := NewStore(StoreOptions{MaxBytes: encodedSize(sampleSim(1)) + 256, Dir: dir})

	st1, st2 := sampleSim(1), sampleSim(2)
	s.Put(key(1), st1)
	s.Put(key(2), st2)

	snap := s.Snap()
	if snap.Evictions != 1 || snap.Spills != 2 {
		t.Fatalf("evictions=%d spills=%d, want 1 eviction and both entries written through (snap %+v)",
			snap.Evictions, snap.Spills, snap)
	}
	if snap.DiskEntries != 2 || snap.DiskBytes <= 0 {
		t.Fatalf("disk tier incomplete after write-through: %+v", snap)
	}
	if snap.MemEntries != 1 || snap.Entries != 2 {
		t.Fatalf("want 1 resident + 2 total entries: %+v", snap)
	}
	if n := slotCount(t, dir); n != 2 {
		t.Fatalf("slots on disk = %d, want exactly 2", n)
	}
	if info, _ := os.Stat(slotPath(dir)); snap.DiskBytes != info.Size() {
		t.Fatalf("DiskBytes = %d, slot file is %d bytes", snap.DiskBytes, info.Size())
	}

	got, tier := s.Get(context.Background(), key(1))
	if tier != TierDisk {
		t.Fatalf("Get(evicted) tier = %v, want disk", tier)
	}
	if !reflect.DeepEqual(got, st1) {
		t.Errorf("disk round trip not bit-identical:\ngot  %+v\nwant %+v", got, st1)
	}
	// The disk hit promoted it back to memory, charged exactly what Put
	// charged: the JSON size recorded in the slot, not the slot's size.
	if _, tier := s.Get(context.Background(), key(1)); tier != TierMemory {
		t.Errorf("post-promotion tier = %v, want memory", tier)
	}
	if snap := s.Snap(); snap.MemEntries != 1 || snap.MemBytes != encodedSize(st1)+64+entryOverhead {
		t.Errorf("promoted entry charged %d bytes (%d resident), want %d", snap.MemBytes, snap.MemEntries, encodedSize(st1)+64+entryOverhead)
	}

	// A fresh store over the same dir serves every entry: the cache survives
	// restarts with nothing lost.
	s2 := NewStore(StoreOptions{Dir: dir})
	if snap := s2.Snap(); snap.DiskEntries != 2 {
		t.Fatalf("restarted store sees %d disk entries, want 2: %+v", snap.DiskEntries, snap)
	}
	for k, want := range map[string]*stats.Sim{key(1): st1, key(2): st2} {
		st, tier := s2.Get(context.Background(), k)
		if tier != TierDisk {
			t.Errorf("restart read tier = %v, want disk", tier)
		}
		if !reflect.DeepEqual(st, want) {
			t.Errorf("restart read of %s not bit-identical", k[:8])
		}
	}
}

// TestStoreWriteThroughUnbounded: with a disk tier but no memory bound,
// nothing is ever evicted yet everything persists — a restart serves the
// full cache.
func TestStoreWriteThroughUnbounded(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	s.Put(key(5), sampleSim(5))
	if snap := s.Snap(); snap.Evictions != 0 || snap.DiskEntries != 1 || snap.Spills != 1 {
		t.Fatalf("write-through without eviction: %+v", snap)
	}
	s2 := NewStore(StoreOptions{Dir: dir})
	if st, tier := s2.Get(context.Background(), key(5)); tier != TierDisk || !reflect.DeepEqual(st, sampleSim(5)) {
		t.Fatalf("restart lost an unevicted entry: tier=%v", tier)
	}
}

// TestStoreCorruptSpill: a slot whose bytes changed after it was indexed
// is dropped and treated as a miss, never an error; a restart's scan skips
// it the same way.
func TestStoreCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	filled(t, dir, 1)
	s := NewStore(StoreOptions{Dir: dir})
	if snap := s.Snap(); snap.DiskEntries != 1 {
		t.Fatalf("slot not indexed: %+v", snap)
	}
	patchSlotFile(t, dir, func(b []byte) []byte {
		b[slotOffset(0)+slotKeyLen+4+9] ^= 0x20 // one bit of the stats
		return b
	})
	k := key(1)
	if st, tier := s.Get(context.Background(), k); st != nil || tier != TierNone {
		t.Fatalf("corrupt slot served: %v %v", st, tier)
	}
	if snap := s.Snap(); snap.DiskErrors != 1 || snap.DiskEntries != 0 {
		t.Errorf("corrupt slot not dropped: %+v", snap)
	}
	s.Close()
	s2 := NewStore(StoreOptions{Dir: dir})
	defer s2.Close()
	if snap := s2.Snap(); snap.DiskErrors != 1 || snap.DiskEntries != 0 {
		t.Errorf("restart indexed the corrupt slot: %+v", snap)
	}
	if st, tier := s2.Get(context.Background(), k); st != nil || tier != TierNone {
		t.Fatalf("corrupt slot served after restart: %v %v", st, tier)
	}
}

// TestStoreTruncatedTrailingSlot: a slot cut short by a crash mid-write is
// truncated away at startup, the slots before it still serve, and the next
// write reuses its place.
func TestStoreTruncatedTrailingSlot(t *testing.T) {
	dir := t.TempDir()
	filled(t, dir, 2)
	patchSlotFile(t, dir, func(b []byte) []byte { return b[:len(b)-100] })
	s := NewStore(StoreOptions{Dir: dir})
	snap := s.Snap()
	if snap.DiskEntries != 1 || snap.DiskErrors != 0 || snap.DiskBytes != slotOffset(1) {
		t.Fatalf("after a torn trailing slot: %+v, want 1 entry, no errors, %d bytes", snap, slotOffset(1))
	}
	if n := slotCount(t, dir); n != 1 {
		t.Fatalf("partial slot not truncated: %d whole slots", n)
	}
	if st, tier := s.Get(context.Background(), key(1)); tier != TierDisk || !reflect.DeepEqual(st, sampleSim(1)) {
		t.Fatalf("slot before the torn one: tier %v", tier)
	}
	s.Put(key(2), sampleSim(2))
	s.Close()
	s2 := NewStore(StoreOptions{Dir: dir})
	defer s2.Close()
	if st, tier := s2.Get(context.Background(), key(2)); tier != TierDisk || !reflect.DeepEqual(st, sampleSim(2)) {
		t.Fatalf("rewritten slot after restart: tier %v", tier)
	}
}

// TestStoreZeroedSlotSkipped: a bad slot in the middle of the file is
// skipped and counted, and the slots after it still load: slots are
// fixed-size, so one bad slot hides no other.
func TestStoreZeroedSlotSkipped(t *testing.T) {
	dir := t.TempDir()
	filled(t, dir, 3)
	patchSlotFile(t, dir, func(b []byte) []byte {
		clear(b[slotOffset(1):slotOffset(2)])
		return b
	})
	s := NewStore(StoreOptions{Dir: dir})
	defer s.Close()
	if snap := s.Snap(); snap.DiskEntries != 2 || snap.DiskErrors != 1 {
		t.Fatalf("zeroed middle slot: %+v, want 2 entries and 1 disk error", snap)
	}
	for _, i := range []byte{1, 3} {
		if st, tier := s.Get(context.Background(), key(i)); tier != TierDisk || !reflect.DeepEqual(st, sampleSim(int64(i))) {
			t.Errorf("slot of key %d: tier %v", i, tier)
		}
	}
	if st, _ := s.Get(context.Background(), key(2)); st != nil {
		t.Error("zeroed slot served")
	}
}

// TestStoreHeaderMismatchResets: a slot file written under another
// stats.Sim layout (here: another fingerprint) is reset rather than
// decoded, and the store then works normally on the fresh file.
func TestStoreHeaderMismatchResets(t *testing.T) {
	dir := t.TempDir()
	filled(t, dir, 2)
	patchSlotFile(t, dir, func(b []byte) []byte {
		b[16] ^= 1 // the layout fingerprint
		return b
	})
	s := NewStore(StoreOptions{Dir: dir})
	if snap := s.Snap(); snap.DiskEntries != 0 || snap.DiskErrors != 0 || snap.DiskBytes != slotHeaderSize {
		t.Fatalf("foreign-layout file not reset: %+v", snap)
	}
	if st, _ := s.Get(context.Background(), key(1)); st != nil {
		t.Fatal("slot of a foreign layout served")
	}
	b, err := os.ReadFile(slotPath(dir))
	if h := slotHeader(); err != nil || string(b) != string(h[:]) {
		t.Fatalf("reset file is %q (err %v), want just this build's header", b, err)
	}
	s.Put(key(3), sampleSim(3))
	s.Close()
	s2 := NewStore(StoreOptions{Dir: dir})
	defer s2.Close()
	if st, tier := s2.Get(context.Background(), key(3)); tier != TierDisk || !reflect.DeepEqual(st, sampleSim(3)) {
		t.Fatalf("write after reset lost: tier %v", tier)
	}
}

// TestStoreIgnoresJSONSpills: per-key JSON spill files from older builds
// are neither read nor removed; such a directory starts cold.
func TestStoreIgnoresJSONSpills(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, key(4)+".json")
	b, _ := json.Marshal(sampleSim(4))
	if err := os.WriteFile(old, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(StoreOptions{Dir: dir})
	defer s.Close()
	if st, _ := s.Get(context.Background(), key(4)); st != nil {
		t.Fatal("old JSON spill served")
	}
	if snap := s.Snap(); snap.DiskEntries != 0 || snap.DiskErrors != 0 {
		t.Errorf("old JSON spill indexed or counted: %+v", snap)
	}
	if _, err := os.Stat(old); err != nil {
		t.Errorf("old JSON spill touched: %v", err)
	}
}

// TestStoreClose: after Close a disk-tier key is a plain miss, neither
// dropped nor counted as a disk error; the memory tier still serves, and
// new results stay memory-only.
func TestStoreClose(t *testing.T) {
	dir := t.TempDir()
	filled(t, dir, 1)
	s := NewStore(StoreOptions{Dir: dir})
	s.Put(key(2), sampleSim(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	before := s.Snap()
	if st, tier := s.Get(context.Background(), key(1)); st != nil || tier != TierNone {
		t.Fatalf("disk hit after Close: %v", tier)
	}
	if _, tier := s.Get(context.Background(), key(2)); tier != TierMemory {
		t.Fatalf("memory tier after Close: %v", tier)
	}
	s.Put(key(3), sampleSim(3))
	after := s.Snap()
	if after.DiskErrors != before.DiskErrors || after.DiskEntries != before.DiskEntries || after.Spills != before.Spills {
		t.Fatalf("Close changed the disk tier: before %+v after %+v", before, after)
	}
	if n := slotCount(t, dir); n != 2 {
		t.Fatalf("slots after Close = %d, want 2", n)
	}

	// Close landing between a lookup's index check and its read: the read
	// fails with os.ErrClosed, which is a plain miss too.
	s2 := NewStore(StoreOptions{Dir: dir})
	s2.file.Close()
	if st, tier := s2.Get(context.Background(), key(1)); st != nil || tier != TierNone {
		t.Fatalf("read of a closed file served: %v", tier)
	}
	if snap := s2.Snap(); snap.DiskErrors != 0 || snap.DiskEntries != 2 {
		t.Fatalf("read of a closed file dropped the slot or counted an error: %+v", snap)
	}
}

// TestStoreKeyShapes: only 64-character lowercase hex keys get a slot;
// anything else stays memory-only.
func TestStoreKeyShapes(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	defer s.Close()
	for _, k := range []string{"", "abc", "../" + key(1)[3:], key(1)[:63] + "G", key(1)[:63] + "A", key(1) + "0"} {
		s.Put(k, sampleSim(1))
	}
	if snap := s.Snap(); snap.DiskEntries != 0 || snap.Spills != 0 || snap.DiskErrors != 0 || snap.MemEntries != 6 {
		t.Fatalf("odd keys reached the disk tier: %+v", snap)
	}
}

// TestStoreLRUOrder: the eviction victim is the least recently used entry,
// and Get refreshes recency.
func TestStoreLRUOrder(t *testing.T) {
	one := encodedSize(sampleSim(0)) + int64(64) + entryOverhead
	s := NewStore(StoreOptions{MaxBytes: 2*one + 128}) // room for ~2 entries, no disk
	s.Put(key(1), sampleSim(1))
	s.Put(key(2), sampleSim(2))
	s.Get(context.Background(), key(1)) // refresh 1 → victim should be 2
	s.Put(key(3), sampleSim(3))
	if st, _ := s.Get(context.Background(), key(2)); st != nil {
		t.Error("LRU evicted the recently-used entry instead of the cold one")
	}
	if st, _ := s.Get(context.Background(), key(1)); st == nil {
		t.Error("recently-used entry was evicted")
	}
	if snap := s.Snap(); snap.Evictions == 0 || snap.Spills != 0 {
		t.Errorf("want drops without spills when no dir: %+v", snap)
	}
}

// TestStoreUnboundedCompat: MaxBytes<=0 never evicts (the pre-cluster
// behavior).
func TestStoreUnboundedCompat(t *testing.T) {
	s := NewStore(StoreOptions{})
	for i := byte(0); i < 16; i++ {
		s.Put(key(i), sampleSim(int64(i)))
	}
	snap := s.Snap()
	if snap.MemEntries != 16 || snap.Evictions != 0 {
		t.Errorf("unbounded store evicted: %+v", snap)
	}
	if snap.Entries != 16 {
		t.Errorf("entries = %d, want 16", snap.Entries)
	}
}

// TestStoreConcurrentDiskTier: concurrent Put/Get churn with a tight
// memory budget forces simultaneous admissions, evictions, spill writes,
// and disk promotions; the reserve/confirm spill protocol (I/O outside the
// lock) must keep accounting consistent and lose nothing that was written
// through.
func TestStoreConcurrentDiskTier(t *testing.T) {
	dir := t.TempDir()
	one := encodedSize(sampleSim(0)) + 64 + entryOverhead
	s := NewStore(StoreOptions{MaxBytes: 4 * one, Dir: dir})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				n := (g + i) % 12
				k := key(byte(n))
				if st, _ := s.Get(context.Background(), k); st == nil {
					s.Put(k, sampleSim(int64(n)))
				}
			}
		}(g)
	}
	wg.Wait()
	for n := 0; n < 12; n++ {
		if st, tier := s.Get(context.Background(), key(byte(n))); st == nil || tier == TierNone {
			t.Errorf("key %d lost after concurrent churn", n)
		}
	}
	snap := s.Snap()
	if snap.DiskEntries != 12 || snap.DiskErrors != 0 {
		t.Errorf("disk tier after churn: %+v, want all 12 keys written through cleanly", snap)
	}
	if snap.MemBytes < 0 || snap.DiskBytes <= 0 {
		t.Errorf("byte accounting drifted: %+v", snap)
	}
}

// FuzzStoreSlots feeds arbitrary bytes to the disk tier as its slot file.
// Opening the store and reading back every key it indexed must never panic,
// and every result served must re-encode to exactly the stats bytes of its
// slot. With seal set, every whole slot's CRC is recomputed first, so the
// fuzzer also reaches key validation and decoding behind the checksum.
func FuzzStoreSlots(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, file []byte, seal bool) {
		if seal {
			file = append([]byte(nil), file...)
			for off := int64(slotHeaderSize); off+slotSize <= int64(len(file)); off += slotSize {
				b := file[off : off+slotSize]
				binary.LittleEndian.PutUint32(b[slotSize-4:], crc32.ChecksumIEEE(b[:slotSize-4]))
			}
		}
		if err := os.WriteFile(slotPath(dir), file, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewStore(StoreOptions{Dir: dir})
		defer s.Close()
		s.mu.Lock()
		idx := make(map[string]int64, len(s.diskIdx))
		for k, i := range s.diskIdx {
			idx[k] = i
		}
		s.mu.Unlock()
		for k, i := range idx {
			st, tier := s.Get(context.Background(), k)
			if st == nil || tier != TierDisk {
				t.Fatalf("indexed key %q (slot %d) not served: tier %v", k, i, tier)
			}
			want := file[slotOffset(i)+slotKeyLen+4 : slotOffset(i+1)-4]
			got := make([]byte, stats.BinarySize)
			st.PutBinary(got)
			if string(got) != string(want) {
				t.Fatalf("slot %d re-encodes differently:\ngot  %x\nwant %x", i, got, want)
			}
		}
	})
}
