package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"testing"

	"snake/internal/trace"
)

// TestTraceRoundTripDefaultScale serializes a full DefaultScale kernel
// through both on-disk formats (gzip+gob binary and JSON) and demands the
// reloaded kernel match the original exactly. Smaller round-trip tests live
// in the trace package; this one covers a production-sized trace with every
// instruction kind the generators emit, through the interned-store path the
// tools use.
func TestTraceRoundTripDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("DefaultScale round-trip writes multi-MB files")
	}
	k, err := NewStore().Kernel("lps", DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"lps.trace", "lps.json"} {
		path := filepath.Join(dir, name)
		if err := k.SaveFile(path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := trace.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !reflect.DeepEqual(got, k) {
			t.Errorf("%s: reloaded kernel differs from original", name)
		}
	}
}

// wireDigests are the SHA-256 digests of WriteJSON for each DefaultScale
// kernel, recorded when kernels still held their instructions as one []Inst
// per warp. Holding them as streams must not move a byte of a file.
var wireDigests = map[string]string{
	"cp":       "4f82c5666254cccb1e71402fecdf4c23e0b8287472a7e4b1db68d6fc40f6ac3c",
	"lps":      "e1f1d0e4b73d91fef4e4c25fbc198b5797854fb5387078863475f4ab4125dac4",
	"lib":      "a539409a174b64f8fb326da3ef77f003641fccf8161885e69d623b9821a3bfe8",
	"mum":      "1d75644a72e67613f8423c1a8f7f6e0b1d169975898c18993485b1a223a6bc2e",
	"backprop": "4c0d40aca4402636169850176134b13c6cdb33d467d9415790445d1b2c424422",
	"hotspot":  "629c22e98fb4855651e47fe1b3518d183c9bd46a79f22b2effe20dae5c613546",
	"srad":     "9365ba98b043a3c746dd228b174f25472ee170040e75edfe1cb4a97de660855d",
	"lud":      "041221040cc2773835557ca6d11daa03246a88433977cb8fbd387f120c1ab48d",
	"nw":       "8fa3cb67de3e7841f28f5acbbbc6aa1372ca81feca21c80f48b6fee684562e32",
	"histo":    "00703726f24f2d05c1ba7315b908ae396a5403c9153ec35e30a066a6185ed766",
	"mrq":      "7f07059a4e714e124ee6561b6d062c60d981b15d166e1a1dc63e5f837b7b2de3",
}

// TestTraceWireFormatUnchanged: every DefaultScale kernel writes the JSON
// pinned in wireDigests, and a binary round trip gives back equal
// instructions.
func TestTraceWireFormatUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("writes every DefaultScale kernel, ~60 MB of JSON")
	}
	for _, name := range Names() {
		k, err := Build(name, DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := k.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != wireDigests[name] {
			t.Errorf("%s: WriteJSON digest %s, want %s", name, got, wireDigests[name])
		}
		var buf bytes.Buffer
		if err := k.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameInsts(got, k) {
			t.Errorf("%s: binary round trip changed the instructions", name)
		}
	}
}

// TestReadEarlierBinaryTrace: testdata/srad-tiny.trace was written by the
// binary codec when kernels held one []Inst per warp; it still loads, to
// the kernel Build makes.
func TestReadEarlierBinaryTrace(t *testing.T) {
	got, err := trace.LoadFile(filepath.Join("testdata", "srad-tiny.trace"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build("srad", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the earlier binary trace loads to a kernel other than Build's")
	}
}

// sameInsts reports whether a and b have the same CTAs and instructions.
func sameInsts(a, b *trace.Kernel) bool {
	if a.Name != b.Name || len(a.CTAs) != len(b.CTAs) {
		return false
	}
	for ci := range a.CTAs {
		ca, cb := &a.CTAs[ci], &b.CTAs[ci]
		if ca.ID != cb.ID || ca.BaseAddr != cb.BaseAddr || ca.SharedMemBytes != cb.SharedMemBytes || len(ca.Warps) != len(cb.Warps) {
			return false
		}
		for wi := range ca.Warps {
			wa, wb := &ca.Warps[wi], &cb.Warps[wi]
			if wa.IDInCTA != wb.IDInCTA || !reflect.DeepEqual(wa.Insts(), wb.Insts()) {
				return false
			}
		}
	}
	return true
}
