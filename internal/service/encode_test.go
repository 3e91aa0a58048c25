package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// encodingCase is one RunView, and the SweepView that wraps it, for the
// encoder's differential checks.
type encodingCase struct {
	name string
	view RunView
	jobs int // SweepView.Jobs: 0 nil, 1 empty, n > 1 the view n-1 times
}

func (c *encodingCase) sweep() SweepView {
	sv := SweepView{ID: "s0001", Done: c.view.Cached, Total: 3, Pending: 1}
	if c.jobs > 0 {
		sv.Jobs = []RunView{}
	}
	for i := 1; i < c.jobs; i++ {
		sv.Jobs = append(sv.Jobs, c.view)
	}
	return sv
}

// checkEncoding holds appendJSON to encoding/json on c: the compact form to
// json.Marshal, and writeRun's and writeSweep's responses, status, header
// and body, to writeJSON's. Where encoding/json fails, appendJSON must fail
// and no body may be written.
func checkEncoding(t *testing.T, c *encodingCase) {
	t.Helper()
	want, wantErr := json.Marshal(c.view)
	got, err := c.view.appendJSON([]byte("prefix"), false)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: compact error %v, encoding/json's %v", c.name, err, wantErr)
	case err != nil && string(got) != "prefix":
		t.Fatalf("%s: failed append returned %q, want its input", c.name, got)
	case err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)):
		t.Fatalf("%s: compact\n got %s\nwant %s", c.name, got[len("prefix"):], want)
	}

	sv := c.sweep()
	ref, rec := httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(ref, http.StatusAccepted, sv)
	writeSweep(rec, http.StatusAccepted, &sv)
	sameResponse(t, c.name+" (sweep)", rec, ref)
	ref, rec = httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(ref, http.StatusOK, c.view)
	writeRun(rec, http.StatusOK, c.view)
	sameResponse(t, c.name+" (run)", rec, ref)
}

func sameResponse(t *testing.T, name string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%s: status %d %q, writeJSON's %d %q", name,
			got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: indented\n got %q\nwant %q", name, got.Body.Bytes(), want.Body.Bytes())
	}
}

// TestRunViewJSONEdgeCases pins the encoder against encoding/json on the
// cases its fast paths could get wrong.
func TestRunViewJSONEdgeCases(t *testing.T) {
	res := func(ipc, cov, acc, l1 float64) *Result {
		return &Result{Cycles: 123456789, Insts: -1, Loads: 0, IPC: ipc, Coverage: cov, Accuracy: acc, L1HitRate: l1}
	}
	done := RunView{
		ID: "r000001", Bench: "lps", Mech: "snake", Key: "0123abcd", Status: StatusDone,
		Cached: true, Source: "disk", WallMS: 0.0123, Result: res(1.5, 0.25, 0.125, 0.9),
	}
	with := func(f func(*RunView)) RunView {
		v := done
		f(&v)
		return v
	}
	negZero := math.Copysign(0, -1)
	cases := []encodingCase{
		{name: "done", view: done, jobs: 3},
		{name: "queued, no optional fields", view: RunView{ID: "r000002", Mech: "baseline", Status: StatusQueued}, jobs: 2},
		{name: "failed", view: with(func(v *RunView) {
			v.Status, v.Result, v.Error = StatusFailed, nil, "context deadline exceeded"
		}), jobs: 2},
		{name: "escapes", view: with(func(v *RunView) {
			v.Error = "<script>&\"\\\n\r\t\b\f\x00\x01\x1f\x7f>"
		}), jobs: 2},
		{name: "one HTML character each", view: with(func(v *RunView) {
			v.Bench, v.Mech, v.Source, v.Key, v.Error = "a<b", "c>d", "e&f", "\x1f", "\\"
		}), jobs: 2},
		{name: "non-UTF-8", view: with(func(v *RunView) { v.Mech, v.Source = "\xff\xfeab\xc3", "x\xe2\x82" }), jobs: 2},
		{name: "line and paragraph separators", view: with(func(v *RunView) { v.Error = "a\u2028b\u2029c é 日本" }), jobs: 2},
		{name: "negative zero", view: with(func(v *RunView) { v.WallMS, v.Result = negZero, res(negZero, 0, negZero, 0) }), jobs: 2},
		{name: "small and large floats", view: with(func(v *RunView) {
			v.WallMS, v.Result = 1e-7, res(1e21, 1e-6, 999999999999999999999, 1.5e-9)
		}), jobs: 2},
		{name: "exponent bounds", view: with(func(v *RunView) {
			v.WallMS, v.Result = -1e-7, res(-1e21, 9.999999999999999e-7, 1e-100, 1.7976931348623157e308)
		}), jobs: 2},
		{name: "smallest denormal", view: with(func(v *RunView) { v.Result = res(5e-324, -5e-324, 1, 0) }), jobs: 2},
		{name: "empty jobs", view: done, jobs: 1},
		{name: "nil jobs", view: done, jobs: 0},
		{name: "NaN", view: with(func(v *RunView) { v.Result = res(math.NaN(), 0, 0, 0) }), jobs: 2},
		{name: "+Inf wall", view: with(func(v *RunView) { v.WallMS = math.Inf(1) }), jobs: 2},
		{name: "-Inf", view: with(func(v *RunView) { v.Result = res(0, 0, 0, math.Inf(-1)) }), jobs: 2},
		{name: "NaN, nil jobs", view: with(func(v *RunView) { v.WallMS = math.NaN() }), jobs: 0},
	}
	for i := range cases {
		checkEncoding(t, &cases[i])
	}
}

// FuzzRunViewJSON builds a RunView from arbitrary strings, bools and float
// bits, with an optional result, and holds appendJSON to encoding/json on
// it and on a SweepView of it (see checkEncoding).
func FuzzRunViewJSON(f *testing.F) {
	f.Add("r000001", "lps", "snake", "0123abcd", "done", "disk", "",
		true, true, math.Float64bits(0.0123), math.Float64bits(1.5), math.Float64bits(0.25),
		math.Float64bits(0.125), math.Float64bits(0.9), int64(123456789), int64(185185183), int64(4096), uint8(3))
	f.Fuzz(func(t *testing.T, id, bench, mech, key, status, source, errMsg string,
		cached, result bool, wall, ipc, cov, acc, l1 uint64, cycles, insts, loads int64, jobs uint8) {
		c := encodingCase{name: "fuzz", jobs: int(jobs % 4), view: RunView{
			ID: id, Bench: bench, Mech: mech, Key: key, Status: Status(status),
			Cached: cached, Source: source, Error: errMsg, WallMS: math.Float64frombits(wall),
		}}
		if result {
			c.view.Result = &Result{
				Cycles: cycles, Insts: insts, Loads: loads,
				IPC: math.Float64frombits(ipc), Coverage: math.Float64frombits(cov),
				Accuracy: math.Float64frombits(acc), L1HitRate: math.Float64frombits(l1),
			}
		}
		checkEncoding(t, &c)
	})
}
