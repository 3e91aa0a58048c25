package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestInstIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 16 {
		t.Errorf("Inst is %d bytes, want 16", got)
	}
}

func TestStaticIs8Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Static{}); got != 8 {
		t.Errorf("Static is %d bytes, want 8", got)
	}
}

// program returns the warp program of insts, built through Builder; the
// last must be the exit.
func program(insts ...Inst) WarpProgram {
	b := NewBuilder()
	for _, in := range insts[:len(insts)-1] {
		switch in.Op {
		case OpCompute:
			b.Compute(uint64(in.PC), int(in.Lat))
		case OpLoad:
			b.Load(uint64(in.PC), in.Addr, int32(in.Stride))
		case OpStore:
			b.Store(uint64(in.PC), in.Addr, int32(in.Stride))
		case OpBarrier:
			b.Barrier(uint64(in.PC))
		}
	}
	return b.Exit(uint64(insts[len(insts)-1].PC))
}

// TestBuilderPanicsPast256Statics: a program names at most 256 distinct
// static instructions; the 257th is a generator bug.
func TestBuilderPanicsPast256Statics(t *testing.T) {
	b := NewBuilder()
	for pc := 0; pc < maxStatic; pc++ {
		b.Compute(uint64(pc*PCWidth), 1)
	}
	b.Compute(0, 1) // repeats fit
	defer func() {
		if recover() == nil {
			t.Error("no panic on the 257th static instruction")
		}
	}()
	b.Compute(maxStatic*PCWidth, 1)
}

// TestBuilderPanicsOutOfRange: a value an Inst field cannot hold is a
// generator bug, so Builder panics instead of truncating it.
func TestBuilderPanicsOutOfRange(t *testing.T) {
	for name, f := range map[string]func(b *Builder){
		"pc 1<<32":      func(b *Builder) { b.Barrier(1 << 32) },
		"load pc 1<<32": func(b *Builder) { b.Load(1<<32, 0, 4) },
		"stride 40000":  func(b *Builder) { b.Load(8, 0, 40000) },
		"stride -40000": func(b *Builder) { b.Store(8, 0, -40000) },
		"lat 128":       func(b *Builder) { b.Compute(8, 128) },
		"lat 256":       func(b *Builder) { b.Compute(8, 256) },
		"lat -1":        func(b *Builder) { b.Compute(8, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f(NewBuilder())
		})
	}
	// The bounds themselves fit.
	p := NewBuilder().Compute(8, 127).Compute(8, 0).Load(0xffff_ffff, 0, 32767).Store(16, 0, -32768).Exit(24)
	if in := p.Insts()[2]; in.PC != 0xffff_ffff || in.Stride != 32767 || p.Insts()[0].Lat != 127 || p.Insts()[3].Stride != -32768 {
		t.Errorf("bounds stored as %+v", p.Insts())
	}
}

// Test-local copies of the kernel types with Inst's earlier field types (a
// 64-bit PC, 32-bit stride and latency). The binary format is gob, which
// matches struct fields by name, so these write the files that layout
// wrote.
type wideInst struct {
	PC     uint64
	Op     Op
	Addr   uint64
	Stride int32
	Lat    int32
}

type wideWarp struct {
	IDInCTA int
	Insts   []wideInst
}

type wideCTA struct {
	ID             int
	Warps          []wideWarp
	BaseAddr       uint64
	SharedMemBytes int
}

type wideKernel struct {
	Name string
	CTAs []wideCTA
}

// wide returns a kernel of one warp holding insts and an exit, in the wide
// layout.
func wide(insts ...wideInst) wideKernel {
	return wideKernel{Name: "wide", CTAs: []wideCTA{{
		BaseAddr: 0x1000, SharedMemBytes: 4096,
		Warps: []wideWarp{{Insts: append(insts, wideInst{PC: 0x40, Op: OpExit})}},
	}}}
}

// wideFile returns k as a binary trace file.
func wideFile(t *testing.T, k wideKernel) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(k); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestReadBinaryWideLayout: a file written with the wide field types loads
// to the equal kernel when its values fit.
func TestReadBinaryWideLayout(t *testing.T) {
	got, err := ReadBinary(wideFile(t, wide(
		wideInst{PC: 0x8, Op: OpCompute, Lat: 48},
		wideInst{PC: 0xb058, Op: OpLoad, Addr: 0x7f00_1234_5678, Stride: -4},
		wideInst{PC: 0x10, Op: OpStore, Addr: 0x2000, Stride: 4},
		wideInst{PC: 0x18, Op: OpBarrier},
	)))
	if err != nil {
		t.Fatal(err)
	}
	want := &Kernel{Name: "wide", CTAs: []CTA{{
		BaseAddr: 0x1000, SharedMemBytes: 4096,
		Warps: []WarpProgram{program(
			Inst{PC: 0x8, Op: OpCompute, Lat: 48},
			Inst{PC: 0xb058, Op: OpLoad, Addr: 0x7f00_1234_5678, Stride: -4},
			Inst{PC: 0x10, Op: OpStore, Addr: 0x2000, Stride: 4},
			Inst{PC: 0x18, Op: OpBarrier},
			Inst{PC: 0x40, Op: OpExit},
		)},
	}}}
	if err := want.Pack(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded %+v, want %+v", got, want)
	}
}

// TestReadRejectsOutOfRange: a decoded value an Inst field cannot hold is
// an error naming the field in either format, never a truncated value.
func TestReadRejectsOutOfRange(t *testing.T) {
	for name, c := range map[string]struct {
		in   wideInst
		want string // what the error names
	}{
		"pc 1<<32":      {wideInst{PC: 1 << 32, Op: OpBarrier}, "PC"},
		"stride 40000":  {wideInst{PC: 8, Op: OpLoad, Stride: 40000}, "Stride"},
		"stride -40000": {wideInst{PC: 8, Op: OpLoad, Stride: -40000}, "Stride"},
		"lat 128":       {wideInst{PC: 8, Op: OpCompute, Lat: 128}, "Lat"},
		"lat -129":      {wideInst{PC: 8, Op: OpCompute, Lat: -129}, "Lat"},
		"lat -1":        {wideInst{PC: 8, Op: OpCompute, Lat: -1}, "latency -1"}, // fits; Validate refuses it
	} {
		t.Run(name, func(t *testing.T) {
			if k, err := ReadBinary(wideFile(t, wide(c.in))); err == nil {
				t.Errorf("binary: loaded %+v", k.CTAs[0].Warps[0].Insts()[0])
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("binary: %v, want an error naming %s", err, c.want)
			}
			js, err := json.Marshal(wide(c.in))
			if err != nil {
				t.Fatal(err)
			}
			if k, err := ReadJSON(bytes.NewReader(js)); err == nil {
				t.Errorf("json: loaded %+v", k.CTAs[0].Warps[0].Insts()[0])
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("json: %v, want an error naming %s", err, c.want)
			}
		})
	}
}
