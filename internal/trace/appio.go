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

// App serialization mirrors the kernel formats: gob-over-gzip binary with a
// distinct magic header, plus indented JSON, chosen by file extension.

// appMagic identifies the binary app-trace format.
const appMagic = "snakeapp\x001\n"

// WriteBinary writes the app in the compressed binary format.
func (a *App) WriteBinary(w io.Writer) error {
	if _, err := io.WriteString(w, appMagic); err != nil {
		return fmt.Errorf("trace: write app header: %w", err)
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(a); err != nil {
		return fmt.Errorf("trace: encode app: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace: flush app: %w", err)
	}
	return nil
}

// ReadAppBinary reads an app written by WriteBinary and validates it.
func ReadAppBinary(r io.Reader) (*App, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(appMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: read app header: %w", err)
	}
	if string(head) != appMagic {
		return nil, fmt.Errorf("trace: not a snake app file (bad magic)")
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("trace: open compressed stream: %w", err)
	}
	defer zr.Close()
	var a App
	if err := gob.NewDecoder(zr).Decode(&a); err != nil {
		return nil, fmt.Errorf("trace: decode app: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("trace: loaded app invalid: %w", err)
	}
	return &a, nil
}

// WriteJSON writes the app as indented JSON.
func (a *App) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("trace: encode app json: %w", err)
	}
	return nil
}

// ReadAppJSON reads an app written by WriteJSON and validates it.
func ReadAppJSON(r io.Reader) (*App, error) {
	var a App
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("trace: decode app json: %w", err)
	}
	for _, l := range a.Launches {
		if l.Kernel != nil {
			l.Kernel.trim()
		}
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("trace: loaded app invalid: %w", err)
	}
	return &a, nil
}

// SaveFile writes the app to path, choosing the format by extension: ".json"
// for JSON, anything else for the compressed binary format.
func (a *App) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if strings.HasSuffix(path, ".json") {
		err = a.WriteJSON(w)
	} else {
		err = a.WriteBinary(w)
	}
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: flush %s: %w", path, err)
	}
	return nil
}

// LoadAppFile reads an app from path, choosing the format by extension.
func LoadAppFile(path string) (*App, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return ReadAppJSON(bufio.NewReader(f))
	}
	return ReadAppBinary(f)
}
