package stats

import (
	"math"
	"reflect"
	"testing"
)

// distinctSim sets every leaf field of a Sim, found by reflection, to its
// own value, so a field the codec skips shows up as a zero after a round
// trip. It returns the number of leaves set.
func distinctSim() (*Sim, int) {
	s := new(Sim)
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Int64:
			n++
			v.SetInt(int64(n)*1_000_003 - 7)
		case reflect.Float64:
			n++
			v.SetFloat(float64(n) + 0.12345678901234567)
		default:
			panic("stats.Sim leaf of unsupported kind " + v.Kind().String() + ": extend the binary codec")
		}
	}
	fill(reflect.ValueOf(s).Elem())
	return s, n
}

// TestSimBinaryRoundTrip: every leaf of Sim survives PutBinary/ReadBinary,
// and BinarySize is exactly eight bytes per leaf. A field added to Sim but
// not to the codec fails here.
func TestSimBinaryRoundTrip(t *testing.T) {
	want, leaves := distinctSim()
	if leaves*8 != BinarySize {
		t.Fatalf("Sim has %d leaf fields (%d bytes), BinarySize is %d", leaves, leaves*8, BinarySize)
	}
	b := make([]byte, BinarySize)
	want.PutBinary(b)
	got := new(Sim)
	got.ReadBinary(b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary round trip lost fields:\ngot  %+v\nwant %+v", got, want)
	}
	// The encoding is canonical: re-encoding the decoded value gives the
	// same bytes.
	again := make([]byte, BinarySize)
	got.PutBinary(again)
	if string(again) != string(b) {
		t.Fatal("re-encoding a decoded Sim changed its bytes")
	}
}

// TestSimBinaryFloatBits: EnergyJ keeps its exact bits, NaN payloads and
// negative zero included.
func TestSimBinaryFloatBits(t *testing.T) {
	b := make([]byte, BinarySize)
	for _, bits := range []uint64{0, 1 << 63, math.Float64bits(math.Inf(-1)), 0x7ff8000000000001, 0x3fbf9add3746f65f} {
		s := Sim{EnergyJ: math.Float64frombits(bits)}
		s.PutBinary(b)
		var got Sim
		got.ReadBinary(b)
		if g := math.Float64bits(got.EnergyJ); g != bits {
			t.Errorf("EnergyJ bits %#x decoded as %#x", bits, g)
		}
	}
}
