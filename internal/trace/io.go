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

// traceMagic identifies the binary trace format.
const traceMagic = "snaketrace\x001\n"

// WriteBinary writes the kernel in the compressed binary format.
func (k *Kernel) WriteBinary(w io.Writer) error {
	if _, err := io.WriteString(w, traceMagic); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(k); err != nil {
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
	var k Kernel
	if err := gob.NewDecoder(zr).Decode(&k); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("trace: loaded kernel invalid: %w", err)
	}
	return &k, nil
}

// WriteJSON writes the kernel as indented JSON.
func (k *Kernel) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(k); err != nil {
		return fmt.Errorf("trace: encode json: %w", err)
	}
	return nil
}

// ReadJSON reads a kernel written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Kernel, error) {
	var k Kernel
	if err := json.NewDecoder(r).Decode(&k); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	k.trim()
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("trace: loaded kernel invalid: %w", err)
	}
	return &k, nil
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
