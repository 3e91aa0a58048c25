package workloads

import (
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
