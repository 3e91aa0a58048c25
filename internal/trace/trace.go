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

// Inst is one warp-level instruction, 16 bytes. Every dynamic instruction
// of an interned kernel is held for the life of the process, so each field
// is only as wide as the generators need: a PC past 4 GiB, a per-thread
// stride past ±32 KiB or a latency past 127 cycles is a generator bug, and
// Builder panics on one rather than truncate it. Lat is signed because the
// binary format's gob codec decodes a signed integer only into a signed
// field, and traces written before this layout carry Lat as an int32.
type Inst struct {
	Addr   uint64 // base (thread 0) byte address for loads/stores
	PC     uint32 // program counter (PC_ld for loads)
	Stride int16  // per-thread byte stride within the warp for loads/stores
	Lat    int8   // execution latency in cycles for compute instructions
	Op     Op
}

// IsMem reports whether the instruction accesses global memory.
func (in Inst) IsMem() bool { return in.Op == OpLoad || in.Op == OpStore }

// WarpProgram is the instruction stream of a single warp.
type WarpProgram struct {
	// IDInCTA is the warp's index within its CTA.
	IDInCTA int
	Insts   []Inst
}

// LoadPCs returns the distinct load PCs in program order of first appearance.
func (w *WarpProgram) LoadPCs() []uint64 {
	seen := make(map[uint64]bool)
	var pcs []uint64
	for _, in := range w.Insts {
		if pc := uint64(in.PC); in.Op == OpLoad && !seen[pc] {
			seen[pc] = true
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// Loads returns the load instructions of the warp in program order.
func (w *WarpProgram) Loads() []Inst {
	var out []Inst
	for _, in := range w.Insts {
		if in.Op == OpLoad {
			out = append(out, in)
		}
	}
	return out
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
// with OpExit, per-CTA warp IDs are dense, and no latency is negative (a
// decoded trace can hold one; Builder never makes one).
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return errors.New("trace: kernel has no name")
	}
	if len(k.CTAs) == 0 {
		return fmt.Errorf("trace: kernel %q has no CTAs", k.Name)
	}
	for ci, cta := range k.CTAs {
		if len(cta.Warps) == 0 {
			return fmt.Errorf("trace: kernel %q CTA %d has no warps", k.Name, ci)
		}
		for wi, w := range cta.Warps {
			if w.IDInCTA != wi {
				return fmt.Errorf("trace: kernel %q CTA %d warp %d has IDInCTA %d", k.Name, ci, wi, w.IDInCTA)
			}
			if len(w.Insts) == 0 {
				return fmt.Errorf("trace: kernel %q CTA %d warp %d is empty", k.Name, ci, wi)
			}
			if last := w.Insts[len(w.Insts)-1]; last.Op != OpExit {
				return fmt.Errorf("trace: kernel %q CTA %d warp %d does not end with exit", k.Name, ci, wi)
			}
			for ii, in := range w.Insts[:len(w.Insts)-1] {
				if in.Op == OpExit {
					return fmt.Errorf("trace: kernel %q CTA %d warp %d has interior exit at %d", k.Name, ci, wi, ii)
				}
				if in.Lat < 0 {
					return fmt.Errorf("trace: kernel %q CTA %d warp %d has latency %d at %d", k.Name, ci, wi, in.Lat, ii)
				}
			}
		}
	}
	return nil
}

// TotalInsts returns the total dynamic instruction count of the kernel.
func (k *Kernel) TotalInsts() int {
	n := 0
	for _, cta := range k.CTAs {
		for _, w := range cta.Warps {
			n += len(w.Insts)
		}
	}
	return n
}

// TotalLoads returns the total dynamic load count of the kernel.
func (k *Kernel) TotalLoads() int {
	n := 0
	for _, cta := range k.CTAs {
		for _, w := range cta.Warps {
			for _, in := range w.Insts {
				if in.Op == OpLoad {
					n++
				}
			}
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
			n := 0
			for _, in := range w.Insts {
				if in.Op == OpLoad {
					n++
				}
			}
			if n > bestLoads {
				bestLoads = n
				best = w
			}
		}
	}
	return best
}
