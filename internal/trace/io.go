package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Kernel serialization: a compact gob-based binary format (gzip-compressed)
// for storing generated traces, plus JSON for interoperability. Both carry
// a format header so files are self-describing.
//
// Both formats hold every instruction as a whole Inst, through the wire
// types below: their field names are the kernel types' own, so files
// written before kernels held their instructions as streams still load,
// and the JSON a kernel writes has not changed.

// wireKernel, wireCTA and wireWarp are Kernel, CTA and WarpProgram as the
// formats spell them.
type wireKernel struct {
	Name string
	CTAs []wireCTA
}

type wireCTA struct {
	ID             int
	Warps          []wireWarp
	BaseAddr       uint64
	SharedMemBytes int
}

type wireWarp struct {
	IDInCTA int
	Insts   []Inst
}

// wire returns k in its wire form. A nil CTA or warp list stays nil, so it
// still encodes as null.
func (k *Kernel) wire() *wireKernel {
	wk := &wireKernel{Name: k.Name}
	if k.CTAs != nil {
		wk.CTAs = make([]wireCTA, len(k.CTAs))
	}
	for ci, cta := range k.CTAs {
		wc := wireCTA{ID: cta.ID, BaseAddr: cta.BaseAddr, SharedMemBytes: cta.SharedMemBytes}
		if cta.Warps != nil {
			wc.Warps = make([]wireWarp, len(cta.Warps))
		}
		for wi := range cta.Warps {
			w := &cta.Warps[wi]
			wc.Warps[wi] = wireWarp{IDInCTA: w.IDInCTA, Insts: w.Insts()}
		}
		wk.CTAs[ci] = wc
	}
	return wk
}

// kernel returns the packed kernel wk spells, or an error if a program
// gives an address to an instruction that is not a load or store (streams
// keep none for it), or the kernel names more than maxStatic distinct
// static instructions.
func (wk *wireKernel) kernel() (*Kernel, error) {
	k := &Kernel{Name: wk.Name, CTAs: make([]CTA, len(wk.CTAs))}
	tab := new(table)
	for ci, wc := range wk.CTAs {
		cta := CTA{ID: wc.ID, BaseAddr: wc.BaseAddr, SharedMemBytes: wc.SharedMemBytes, Warps: make([]WarpProgram, len(wc.Warps))}
		for wi, ww := range wc.Warps {
			w := WarpProgram{IDInCTA: ww.IDInCTA, tab: tab}
			for ii, in := range ww.Insts {
				s := in.static()
				if !s.IsMem() && in.Addr != 0 {
					return nil, fmt.Errorf("trace: kernel %q CTA %d warp %d: %s at %d has address %#x", wk.Name, ci, wi, in.Op, ii, in.Addr)
				}
				c, ok := tab.add(s)
				if !ok {
					return nil, fmt.Errorf("trace: kernel %q has more than %d distinct static instructions", wk.Name, maxStatic)
				}
				w.code = append(w.code, c)
				if s.IsMem() {
					w.addrs = append(w.addrs, in.Addr)
				}
			}
			cta.Warps[wi] = w
		}
		k.CTAs[ci] = cta
	}
	if err := k.Pack(); err != nil {
		return nil, err
	}
	return k, nil
}

// traceMagic identifies the binary trace format.
const traceMagic = "snaketrace\x001\n"

// WriteBinary writes the kernel in the compressed binary format.
func (k *Kernel) WriteBinary(w io.Writer) error {
	if _, err := io.WriteString(w, traceMagic); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(k.wire()); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadBinary reads a kernel written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*Kernel, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if string(head) != traceMagic {
		return nil, fmt.Errorf("trace: not a snake trace file (bad magic)")
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("trace: open compressed stream: %w", err)
	}
	defer zr.Close()
	var wk wireKernel
	if err := gob.NewDecoder(zr).Decode(&wk); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return load(&wk)
}

// load returns the validated kernel wk spells.
func load(wk *wireKernel) (*Kernel, error) {
	k, err := wk.kernel()
	if err == nil {
		err = k.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("trace: loaded kernel invalid: %w", err)
	}
	return k, nil
}

// WriteJSON writes the kernel as indented JSON.
func (k *Kernel) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(k.wire()); err != nil {
		return fmt.Errorf("trace: encode json: %w", err)
	}
	return nil
}

// ReadJSON reads a kernel written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Kernel, error) {
	var wk wireKernel
	if err := json.NewDecoder(r).Decode(&wk); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	return load(&wk)
}

// SaveFile writes the kernel to path, choosing the format by extension:
// ".json" for JSON, anything else for the compressed binary format.
func (k *Kernel) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if strings.HasSuffix(path, ".json") {
		err = k.WriteJSON(w)
	} else {
		err = k.WriteBinary(w)
	}
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: flush %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a kernel from path, choosing the format by extension.
func LoadFile(path string) (*Kernel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return ReadJSON(bufio.NewReader(f))
	}
	return ReadBinary(f)
}
