package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
)

// BinarySize is the length of Sim's fixed binary encoding: 33 eight-byte
// little-endian fields, the 32 integer counters in declaration order
// (Prefetch's counters in place of Pf) and then EnergyJ's IEEE-754 bits.
const BinarySize = 33 * 8

// counters visits every integer counter of s in encoding order. Encode and
// decode share it so the two cannot drift apart.
func (s *Sim) counters(f func(*int64)) {
	f(&s.Cycles)
	f(&s.Insts)
	f(&s.Loads)
	f(&s.Stores)
	for i := range s.L1 {
		f(&s.L1[i])
	}
	f(&s.ResFailMissQueue)
	f(&s.ResFailMSHR)
	f(&s.ResFailVictim)
	f(&s.StallMemory)
	f(&s.StallOther)
	f(&s.IcntBytes)
	f(&s.IcntPeakBytes)
	f(&s.Pf.Issued)
	f(&s.Pf.Dropped)
	f(&s.Pf.UsefulTimely)
	f(&s.Pf.UsefulLate)
	f(&s.Pf.EarlyEvicted)
	f(&s.Pf.Unused)
	f(&s.Pf.Transferred)
	f(&s.Pf.ThrottleCycles)
	f(&s.Pf.Covered)
	f(&s.Pf.CoveredTimely)
	f(&s.L2Hits)
	f(&s.L2Misses)
	f(&s.L2Merges)
	f(&s.DRAMReads)
	f(&s.DRAMRowHits)
	f(&s.DRAMRowMisses)
}

// PutBinary writes s's fixed binary encoding into b[:BinarySize]. It only
// reads s, so it is safe on a Sim other goroutines are reading too.
func (s *Sim) PutBinary(b []byte) {
	_ = b[BinarySize-1]
	off := 0
	s.counters(func(v *int64) {
		binary.LittleEndian.PutUint64(b[off:], uint64(*v))
		off += 8
	})
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(s.EnergyJ))
}

// ReadBinary overwrites s with the encoding PutBinary wrote to
// b[:BinarySize]. Every bit pattern decodes, so it cannot fail; callers
// that need integrity check a checksum around it.
func (s *Sim) ReadBinary(b []byte) {
	_ = b[BinarySize-1]
	off := 0
	s.counters(func(v *int64) {
		*v = int64(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	})
	s.EnergyJ = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

// LayoutFingerprint hashes Sim's field layout: every leaf field's path,
// type and position. A persisted binary encoding records it so that a Sim
// that gained, lost, renamed or reordered a field never decodes a record
// written under the old layout.
func LayoutFingerprint() uint64 { return layoutFingerprint }

var layoutFingerprint = func() uint64 {
	h := fnv.New64a()
	var walk func(prefix string, t reflect.Type)
	walk = func(prefix string, t reflect.Type) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
				continue
			}
			h.Write([]byte(prefix + f.Name + " " + f.Type.String() + ";"))
		}
	}
	walk("", reflect.TypeOf(Sim{}))
	return h.Sum64()
}()
