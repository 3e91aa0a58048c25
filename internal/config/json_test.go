package config

import (
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	for name, g := range map[string]GPU{
		"default": Default(),
		"scaled":  Scaled(4, 64),
		"tiny":    Scaled(2, 16),
	} {
		b, err := g.JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ParseJSON(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(g, back) {
			t.Errorf("%s: round trip changed the config:\nbefore %+v\nafter  %+v", name, g, back)
		}
	}
}

func TestParseJSONRejectsUnknownField(t *testing.T) {
	b, err := Default().JSON()
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(b), `"NumSM"`, `"NumSMs"`, 1)
	if _, err := ParseJSON([]byte(bad)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestParseJSONValidates(t *testing.T) {
	g := Default()
	g.NumSM = 0
	b, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseJSON(b); err == nil {
		t.Error("invalid config accepted")
	}
}

// FuzzParseJSON checks the wire decoder snaked feeds with client GPU
// overrides: any input is either rejected or accepted as a configuration
// that survives JSON → ParseJSON unchanged and whose slack audit is
// computable. It never panics. Seeds live in testdata/fuzz/FuzzParseJSON.
func FuzzParseJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseJSON(data)
		if err != nil {
			return
		}
		g.SlackAudit()
		b, err := g.JSON()
		if err != nil {
			t.Fatalf("accepted config does not encode: %v", err)
		}
		back, err := ParseJSON(b)
		if err != nil {
			t.Fatalf("accepted config does not re-parse: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(g, back) {
			t.Fatalf("round trip changed the config:\nbefore %+v\nafter  %+v", g, back)
		}
	})
}
