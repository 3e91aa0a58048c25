package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// RunView and SweepView are the bulk of what snaked writes: one RunView per
// stream line and per cell of a sweep response. Their appendJSON methods
// write them without reflection, byte for byte as encoding/json does: the
// compact form is json.Marshal's, the indented form writeJSON's
// (Encoder.SetIndent("", "  ")). FuzzRunViewJSON holds them to that.

// jsonOut appends one JSON value in encoding/json's output form, compact or
// indented by two spaces per level.
type jsonOut struct {
	b      []byte
	indent bool
	depth  int
	first  bool // nothing written yet inside the innermost open object or array
	err    error
}

func (o *jsonOut) newline() {
	if !o.indent {
		return
	}
	o.b = append(o.b, '\n')
	for i := 0; i < o.depth; i++ {
		o.b = append(o.b, "  "...)
	}
}

// elem starts an array element or object member.
func (o *jsonOut) elem() {
	if !o.first {
		o.b = append(o.b, ',')
	}
	o.first = false
	o.newline()
}

// field starts an object member; name needs no escaping.
func (o *jsonOut) field(name string) {
	o.elem()
	o.b = append(o.b, '"')
	o.b = append(o.b, name...)
	o.b = append(o.b, '"', ':')
	if o.indent {
		o.b = append(o.b, ' ')
	}
}

func (o *jsonOut) open(c byte) {
	o.b = append(o.b, c)
	o.depth++
	o.first = true
}

// close ends the innermost object or array; an empty one stays "{}" or "[]"
// in the indented form too. The enclosing one now holds a member.
func (o *jsonOut) close(c byte) {
	o.depth--
	if !o.first {
		o.newline()
	}
	o.b = append(o.b, c)
	o.first = false
}

// str appends s quoted. Printable ASCII other than `"`, `\`, `<`, `>` and
// `&` is written as is; any other string takes encoding/json's own quoting
// (HTML escapes, U+2028/U+2029, U+FFFD for invalid UTF-8).
func (o *jsonOut) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			o.b = append(o.b, q...)
			return
		}
	}
	o.b = append(o.b, '"')
	o.b = append(o.b, s...)
	o.b = append(o.b, '"')
}

func (o *jsonOut) bool(v bool) {
	o.b = strconv.AppendBool(o.b, v)
}

func (o *jsonOut) int(v int64) {
	o.b = strconv.AppendInt(o.b, v, 10)
}

// float appends f as encoding/json does: like ES6 number-to-string, 'f'
// format unless |f| is below 1e-6 or from 1e21 up, with a one-digit
// negative exponent unpadded. NaN and ±Inf are unsupported values.
func (o *jsonOut) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if o.err == nil {
			o.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	o.b = strconv.AppendFloat(o.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(o.b); n >= 4 && o.b[n-4] == 'e' && o.b[n-3] == '-' && o.b[n-2] == '0' {
			o.b[n-2] = o.b[n-1]
			o.b = o.b[:n-1]
		}
	}
}

// done returns what o appended to dst, or dst and the error when a value
// was unsupported.
func (o *jsonOut) done(dst []byte) ([]byte, error) {
	if o.err != nil {
		return dst, o.err
	}
	return o.b, nil
}

// appendJSON appends v as json.Marshal writes it (indent false) or as
// writeJSON's encoder does, without its trailing newline (indent true). A
// NaN or infinite float fails it, as it fails encoding/json.
func (v *RunView) appendJSON(dst []byte, indent bool) ([]byte, error) {
	o := jsonOut{b: dst, indent: indent}
	v.encode(&o)
	return o.done(dst)
}

// encode writes v's fields in declaration order, honouring omitempty.
func (v *RunView) encode(o *jsonOut) {
	o.open('{')
	o.field("id")
	o.str(v.ID)
	if v.Bench != "" {
		o.field("bench")
		o.str(v.Bench)
	}
	o.field("mech")
	o.str(v.Mech)
	o.field("key")
	o.str(v.Key)
	o.field("status")
	o.str(string(v.Status))
	o.field("cached")
	o.bool(v.Cached)
	if v.Source != "" {
		o.field("source")
		o.str(v.Source)
	}
	if v.Error != "" {
		o.field("error")
		o.str(v.Error)
	}
	if v.WallMS != 0 {
		o.field("wall_ms")
		o.float(v.WallMS)
	}
	if r := v.Result; r != nil {
		o.field("result")
		o.open('{')
		o.field("cycles")
		o.int(r.Cycles)
		o.field("insts")
		o.int(r.Insts)
		o.field("loads")
		o.int(r.Loads)
		o.field("ipc")
		o.float(r.IPC)
		o.field("coverage")
		o.float(r.Coverage)
		o.field("accuracy")
		o.float(r.Accuracy)
		o.field("l1_hit_rate")
		o.float(r.L1HitRate)
		o.close('}')
	}
	o.close('}')
}

// appendJSON appends v as RunView.appendJSON does; nil Jobs is "null".
func (v *SweepView) appendJSON(dst []byte, indent bool) ([]byte, error) {
	o := jsonOut{b: dst, indent: indent}
	o.open('{')
	o.field("id")
	o.str(v.ID)
	o.field("done")
	o.bool(v.Done)
	o.field("total")
	o.int(int64(v.Total))
	o.field("pending")
	o.int(int64(v.Pending))
	o.field("jobs")
	if v.Jobs == nil {
		o.b = append(o.b, "null"...)
	} else {
		o.open('[')
		for i := range v.Jobs {
			o.elem()
			v.Jobs[i].encode(&o)
		}
		o.close(']')
	}
	o.close('}')
	return o.done(dst)
}

// views snapshots jobs for a SweepView.
func views(jobs []*job) []RunView {
	vs := make([]RunView, len(jobs))
	for i, j := range jobs {
		vs[i] = j.view()
	}
	return vs
}

// viewBytes sizes a response buffer: an indented RunView with a result is
// about 400 bytes.
const viewBytes = 512

// writeRun writes v as the response.
func writeRun(w http.ResponseWriter, code int, v RunView) {
	b, err := v.appendJSON(make([]byte, 0, viewBytes), true)
	writeBody(w, code, b, err)
}

// writeSweep writes v as the response.
func writeSweep(w http.ResponseWriter, code int, v *SweepView) {
	b, err := v.appendJSON(make([]byte, 0, viewBytes*(len(v.Jobs)+1)), true)
	writeBody(w, code, b, err)
}

// writeBody ends a response as writeJSON does: the status, then the
// indented value and a newline, or no body when the value was unsupported.
func writeBody(w http.ResponseWriter, code int, b []byte, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		_, _ = w.Write(append(b, '\n')) // a failed write is a gone client: nothing to tell it
	}
}
