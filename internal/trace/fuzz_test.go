package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// staticsJSON returns the JSON of a one-CTA kernel whose warps hold n
// distinct compute instructions between them, dealt round-robin, and end
// with the same exit: n+1 distinct static instructions.
func staticsJSON(t testing.TB, n, warps int) []byte {
	t.Helper()
	wk := wireKernel{Name: "wide", CTAs: []wireCTA{{Warps: make([]wireWarp, warps)}}}
	for i := 0; i < n; i++ {
		w := &wk.CTAs[0].Warps[i%warps]
		w.Insts = append(w.Insts, Inst{PC: uint32(i * PCWidth), Op: OpCompute, Lat: 1})
	}
	for i := range wk.CTAs[0].Warps {
		w := &wk.CTAs[0].Warps[i]
		w.IDInCTA = i
		w.Insts = append(w.Insts, Inst{PC: uint32(n * PCWidth), Op: OpExit})
	}
	js, err := json.Marshal(wk)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestReadRejectsPast256Statics: a kernel names at most 256 distinct static
// instructions, the exit included, whether one warp or the union of several
// holds the 257th; a decoded trace with more is an error, not a panic.
func TestReadRejectsPast256Statics(t *testing.T) {
	for _, warps := range []int{1, 2} {
		if _, err := ReadJSON(bytes.NewReader(staticsJSON(t, maxStatic-1, warps))); err != nil {
			t.Errorf("%d warps, 256 statics: %v", warps, err)
		}
		_, err := ReadJSON(bytes.NewReader(staticsJSON(t, maxStatic, warps)))
		if err == nil || !strings.Contains(err.Error(), "distinct static instructions") {
			t.Errorf("%d warps, 257 statics: %v, want an error naming the static instructions", warps, err)
		}
	}
}

// TestReadRejectsAddressOffMemory: only loads and stores carry an address;
// a decoded instruction of another kind with one is an error, since the
// kernel would not keep it.
func TestReadRejectsAddressOffMemory(t *testing.T) {
	js := `{"Name":"k","CTAs":[{"Warps":[{"Insts":[{"Addr":64,"PC":8,"Op":0},{"PC":16,"Op":4}]}]}]}`
	if _, err := ReadJSON(strings.NewReader(js)); err == nil || !strings.Contains(err.Error(), "address") {
		t.Errorf("compute with an address: %v, want an error naming the address", err)
	}
}

// FuzzReadJSON: ReadJSON never panics, and every kernel it accepts writes
// JSON that reads back to the same kernel and instructions.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := validKernel().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(staticsJSON(f, maxStatic-1, 2))
	f.Add(staticsJSON(f, maxStatic, 3))
	f.Add([]byte(`{"Name":"k","CTAs":[{"Warps":[{"Insts":[{"Addr":4096,"PC":8,"Stride":-4,"Op":1},{"PC":16,"Lat":127},{"PC":24,"Op":4}]}]}]}`))
	f.Add([]byte(`{"Name":"k","CTAs":[{"Warps":[{"Insts":[{"PC":8,"Op":4},{"PC":16,"Op":4}]}]}]}`))
	f.Add([]byte(`{"Name":"k","CTAs":[{"Warps":[{"IDInCTA":1,"Insts":[{"PC":8,"Op":9}]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := k.WriteJSON(&out); err != nil {
			t.Fatalf("accepted kernel does not encode: %v", err)
		}
		back, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("re-encoded kernel rejected: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, k) {
			t.Fatalf("re-encoded kernel differs:\n%s", out.Bytes())
		}
		for ci := range k.CTAs {
			for wi := range k.CTAs[ci].Warps {
				if a, b := k.CTAs[ci].Warps[wi].Insts(), back.CTAs[ci].Warps[wi].Insts(); !reflect.DeepEqual(a, b) {
					t.Fatalf("CTA %d warp %d: %+v re-encodes to %+v", ci, wi, a, b)
				}
			}
		}
	})
}
