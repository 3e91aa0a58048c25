package trace

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	k := validKernel()
	var buf bytes.Buffer
	if err := k.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k, got) {
		t.Error("binary round trip changed the kernel")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	k := validKernel()
	var buf bytes.Buffer
	if err := k.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k, got) {
		t.Error("json round trip changed the kernel")
	}
	for ci, cta := range got.CTAs {
		for wi, w := range cta.Warps {
			if cap(w.code) != len(w.code) || cap(w.addrs) != len(w.addrs) {
				t.Errorf("decoded CTA %d warp %d has caps %d and %d for %d instructions and %d addresses",
					ci, wi, cap(w.code), cap(w.addrs), len(w.code), len(w.addrs))
			}
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace file at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadRejectsInvalidKernel(t *testing.T) {
	k := validKernel()
	k.CTAs[0].Warps[0].code = k.CTAs[0].Warps[0].code[:1] // no exit
	var buf bytes.Buffer
	if err := k.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("invalid kernel accepted on load")
	}
}

func TestSaveLoadFile(t *testing.T) {
	k := validKernel()
	dir := t.TempDir()
	for _, name := range []string{"k.trace", "k.json"} {
		path := filepath.Join(dir, name)
		if err := k.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(k, got) {
			t.Errorf("%s: round trip changed the kernel", name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Error("missing file accepted")
	}
}
