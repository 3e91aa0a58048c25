// Package trace defines the instruction-trace representation consumed by the
// simulator: kernels composed of CTAs, CTAs composed of warps, warps composed
// of instructions.
//
// A warp is the unit of execution (32 threads executing in lockstep). For
// memory instructions the trace carries the coalesced base address of the
// warp (thread 0's address) plus the per-thread stride; the Snake paper
// (§3.4) observes that the stride between threads in a warp is consistently
// equal, so the prefetcher only retains thread 0's address when that holds.
package trace

import (
	"errors"
	"fmt"
	"slices"
)

// Op is an instruction opcode class. The simulator only distinguishes the
// classes that matter for memory-system behaviour.
type Op uint8

// Opcode classes.
const (
	OpCompute Op = iota // ALU/FPU work occupying the warp for Lat cycles
	OpLoad              // global-memory load
	OpStore             // global-memory store
	OpBarrier           // CTA-wide barrier
	OpExit              // warp termination
)

// String returns a short mnemonic for the opcode class.
func (o Op) String() string {
	switch o {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBarrier:
		return "barrier"
	case OpExit:
		return "exit"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Inst is one warp-level instruction: the type traces are exchanged in
// (Builder's input, the JSON and binary formats, WarpProgram.Insts). A
// kernel does not store it: it keeps each distinct Static once and, per
// dynamic instruction, a one-byte index into that table plus, for a load or
// store, the address. Each field is only as wide as the generators need: a
// PC past 4 GiB, a per-thread stride past ±32 KiB or a latency past 127
// cycles is a generator bug, and Builder panics on one rather than truncate
// it. Lat is signed because the binary format's gob codec decodes a signed
// integer only into a signed field, and traces written before this layout
// carry Lat as an int32.
type Inst struct {
	Addr   uint64 // base (thread 0) byte address for loads/stores
	PC     uint32 // program counter (PC_ld for loads)
	Stride int16  // per-thread byte stride within the warp for loads/stores
	Lat    int8   // execution latency in cycles for compute instructions
	Op     Op
}

// IsMem reports whether the instruction accesses global memory.
func (in Inst) IsMem() bool { return in.Op == OpLoad || in.Op == OpStore }

// static returns the instruction without its address.
func (in Inst) static() Static {
	return Static{PC: in.PC, Stride: in.Stride, Lat: in.Lat, Op: in.Op}
}

// Static is everything about an instruction but its address: one entry of
// a kernel's static-instruction table, 8 bytes.
type Static struct {
	PC     uint32
	Stride int16
	Lat    int8
	Op     Op
}

// IsMem reports whether the instruction accesses global memory.
func (s Static) IsMem() bool { return s.Op == OpLoad || s.Op == OpStore }

// inst returns the instruction at address addr.
func (s Static) inst(addr uint64) Inst {
	return Inst{Addr: addr, PC: s.PC, Stride: s.Stride, Lat: s.Lat, Op: s.Op}
}

// maxStatic is the most distinct static instructions a kernel may hold: a
// dynamic instruction names its entry in one byte.
const maxStatic = 1 << 8

// table is a static-instruction table: the distinct Statics of one or more
// programs, in order of first appearance. A code byte indexes it, so it
// holds at most maxStatic entries.
type table struct {
	at []Static
}

// len returns the number of entries in t, which may be nil.
func (t *table) len() int {
	if t == nil {
		return 0
	}
	return len(t.at)
}

// add returns the index of s in t, appending s on its first appearance. It
// reports false if s is new and t is full. Tables are a few entries long,
// so a scan beats a map.
func (t *table) add(s Static) (uint8, bool) {
	for i, e := range t.at {
		if e == s {
			return uint8(i), true
		}
	}
	if len(t.at) == maxStatic {
		return 0, false
	}
	t.at = append(t.at, s)
	return uint8(len(t.at) - 1), true
}

// WarpProgram is the instruction stream of a single warp, held as two
// streams: code, one table index per dynamic instruction, and addrs, one
// address per load or store in program order. All warps of a packed kernel
// share one table (Kernel.Pack). A program is immutable once built.
type WarpProgram struct {
	// IDInCTA is the warp's index within its CTA.
	IDInCTA int
	code    []uint8
	addrs   []uint64
	tab     *table
}

// Len returns the warp's dynamic instruction count.
func (w *WarpProgram) Len() int { return len(w.code) }

// At returns dynamic instruction i without its address.
func (w *WarpProgram) At(i int) Static { return w.tab.at[w.code[i]] }

// Addr returns the address of the warp's m-th memory instruction (load or
// store), counted in program order.
func (w *WarpProgram) Addr(m int) uint64 { return w.addrs[m] }

// Insts returns the warp's instructions, rebuilt from its streams.
func (w *WarpProgram) Insts() []Inst {
	if len(w.code) == 0 {
		return nil
	}
	out := make([]Inst, len(w.code))
	m := 0
	for i, c := range w.code {
		s := w.tab.at[c]
		var addr uint64
		if s.IsMem() {
			addr = w.addrs[m]
			m++
		}
		out[i] = s.inst(addr)
	}
	return out
}

// LoadPCs returns the distinct load PCs in program order of first appearance.
func (w *WarpProgram) LoadPCs() []uint64 {
	seen := make(map[uint64]bool)
	var pcs []uint64
	for _, c := range w.code {
		if s := w.tab.at[c]; s.Op == OpLoad && !seen[uint64(s.PC)] {
			seen[uint64(s.PC)] = true
			pcs = append(pcs, uint64(s.PC))
		}
	}
	return pcs
}

// Loads returns the load instructions of the warp in program order.
func (w *WarpProgram) Loads() []Inst {
	var out []Inst
	m := 0
	for _, c := range w.code {
		s := w.tab.at[c]
		if !s.IsMem() {
			continue
		}
		if s.Op == OpLoad {
			out = append(out, s.inst(w.addrs[m]))
		}
		m++
	}
	return out
}

// loads returns the warp's dynamic load count.
func (w *WarpProgram) loads() int {
	n := 0
	for _, c := range w.code {
		if w.tab.at[c].Op == OpLoad {
			n++
		}
	}
	return n
}

// CTA is a cooperative thread array (thread block).
type CTA struct {
	ID    int
	Warps []WarpProgram
	// BaseAddr is the CTA's base data address, used by CTA-aware prefetching.
	BaseAddr uint64
	// SharedMemBytes is the CTA's shared-memory requirement, carved out of
	// the unified cache at dispatch.
	SharedMemBytes int
}

// Kernel is a full grid of CTAs plus metadata.
type Kernel struct {
	Name string
	CTAs []CTA
}

// Validate checks structural invariants of the kernel: non-empty, warps end
// with OpExit and hold no other, per-CTA warp IDs are dense, every code
// names a table entry, each warp has one address per load or store, and no
// latency is negative (a decoded trace can hold one; Builder never makes
// one). Every run validates its kernel, so the scan over a warp's codes
// only counts their classes (classify); a second pass names the fault of a
// warp the counts refuse.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return errors.New("trace: kernel has no name")
	}
	if len(k.CTAs) == 0 {
		return fmt.Errorf("trace: kernel %q has no CTAs", k.Name)
	}
	var cls [maxStatic]uint8
	var clsOf *table // the table cls classes; packed kernels have one
	for ci, cta := range k.CTAs {
		if len(cta.Warps) == 0 {
			return fmt.Errorf("trace: kernel %q CTA %d has no warps", k.Name, ci)
		}
		for wi := range cta.Warps {
			w := &cta.Warps[wi]
			if w.IDInCTA != wi {
				return fmt.Errorf("trace: kernel %q CTA %d warp %d has IDInCTA %d", k.Name, ci, wi, w.IDInCTA)
			}
			if len(w.code) == 0 {
				return fmt.Errorf("trace: kernel %q CTA %d warp %d is empty", k.Name, ci, wi)
			}
			if clsOf == nil || w.tab != clsOf {
				classify(w.tab, &cls)
				clsOf = w.tab
			}
			if msg := w.check(&cls); msg != "" {
				return fmt.Errorf("trace: kernel %q CTA %d warp %d %s", k.Name, ci, wi, msg)
			}
		}
	}
	return nil
}

// The classes Validate gives a code.
const (
	classMem  = 1 << iota // a load or store: it owns an address
	classExit             // the exit
	classBad              // past the table, or a negative latency
)

// classify sets cls[c] to code c's class under t.
func classify(t *table, cls *[maxStatic]uint8) {
	for c := range cls {
		cls[c] = classBad
	}
	for c := range t.len() {
		s := t.at[c]
		switch {
		case s.Lat < 0:
			cls[c] = classBad
		case s.IsMem():
			cls[c] = classMem
		case s.Op == OpExit:
			cls[c] = classExit
		default:
			cls[c] = 0
		}
	}
}

// check returns what is wrong with the non-empty w, whose table's codes
// have the classes cls, or "" if nothing is.
func (w *WarpProgram) check(cls *[maxStatic]uint8) string {
	var seen uint8
	mem, exits := 0, 0
	for _, c := range w.code {
		x := cls[c]
		seen |= x
		mem += int(x & classMem)
		exits += int(x >> 1 & 1)
	}
	if seen&classBad != 0 || exits != 1 || cls[w.code[len(w.code)-1]]&classExit == 0 {
		return w.fault()
	}
	if mem != len(w.addrs) {
		return fmt.Sprintf("has %d addresses for %d memory instructions", len(w.addrs), mem)
	}
	return ""
}

// fault describes w's first fault in program order, for a warp whose
// counts Validate refused.
func (w *WarpProgram) fault() string {
	last := len(w.code) - 1
	for ii, c := range w.code {
		if int(c) >= w.tab.len() {
			return fmt.Sprintf("names static instruction %d of %d at %d", c, w.tab.len(), ii)
		}
	}
	if w.tab.at[w.code[last]].Op != OpExit {
		return "does not end with exit"
	}
	for ii, c := range w.code {
		s := w.tab.at[c]
		if s.Op == OpExit && ii != last {
			return fmt.Sprintf("has interior exit at %d", ii)
		}
		if s.Lat < 0 {
			return fmt.Sprintf("has latency %d at %d", s.Lat, ii)
		}
	}
	return "is invalid" // unreachable: the counts name one of the above
}

// TotalInsts returns the total dynamic instruction count of the kernel.
func (k *Kernel) TotalInsts() int {
	n := 0
	for _, cta := range k.CTAs {
		for wi := range cta.Warps {
			n += cta.Warps[wi].Len()
		}
	}
	return n
}

// TotalLoads returns the total dynamic load count of the kernel.
func (k *Kernel) TotalLoads() int {
	n := 0
	for _, cta := range k.CTAs {
		for wi := range cta.Warps {
			n += cta.Warps[wi].loads()
		}
	}
	return n
}

// RepresentativeWarp returns the warp with the most dynamic load instructions
// (the paper's "representative warp" for the motivational analyses).
func (k *Kernel) RepresentativeWarp() *WarpProgram {
	var best *WarpProgram
	bestLoads := -1
	for ci := range k.CTAs {
		for wi := range k.CTAs[ci].Warps {
			w := &k.CTAs[ci].Warps[wi]
			if n := w.loads(); n > bestLoads {
				bestLoads = n
				best = w
			}
		}
	}
	return best
}

// Bytes returns the bytes the kernel's instructions hold: every warp's code
// and address arrays, and the entries of each distinct static table once.
func (k *Kernel) Bytes() int64 {
	var n int64
	var tabs []*table
	for _, cta := range k.CTAs {
		for wi := range cta.Warps {
			w := &cta.Warps[wi]
			n += int64(cap(w.code)) + 8*int64(cap(w.addrs))
			if w.tab != nil && !slices.Contains(tabs, w.tab) {
				tabs = append(tabs, w.tab)
				n += 8 * int64(cap(w.tab.at))
			}
		}
	}
	return n
}
