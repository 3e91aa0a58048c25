package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"snake/internal/core"
)

// TestEveryKnobMutatesConfig asserts each sweepable knob actually changes
// core.Config — a knob whose setter writes the wrong field (or none) would
// silently sweep nothing.
func TestEveryKnobMutatesConfig(t *testing.T) {
	base := core.Defaults()
	seen := make(map[string]string) // fingerprint -> knob that produced it
	for name, k := range knobs {
		cfg := core.Defaults()
		k.set(&cfg, 7777)
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("knob %q does not mutate core.Config", name)
			continue
		}
		// Setting a second value must change the config again, so the knob
		// really forwards its argument.
		cfg2 := core.Defaults()
		k.set(&cfg2, 8888)
		if reflect.DeepEqual(cfg, cfg2) {
			t.Errorf("knob %q ignores its value", name)
		}
		// Two knobs writing the same field would collide here.
		fp := fmt.Sprintf("%+v", cfg)
		if prev, dup := seen[fp]; dup {
			t.Errorf("knobs %q and %q mutate the same field", name, prev)
		}
		seen[fp] = name
	}
}

// TestKnobRanges: a knob accepts exactly the values of its range, and each
// accepted value is the one the config runs. Around both ends of every
// range, a value is accepted iff core.Config.Validate accepts it and the
// canonical config keeps it; a rejected value names the knob and the range.
// chaindepth 0 and -1 are rejected (they ran the default depth 2 under
// their own labels), and interwarpdeg 0 is a real setting.
func TestKnobRanges(t *testing.T) {
	for name, k := range knobs {
		if k.min > k.max {
			t.Errorf("knob %s: empty range [%d, %d]", name, k.min, k.max)
		}
		for _, v := range []int{-2, -1, 0, 1, 2, k.min - 1, k.min, k.max, k.max + 1} {
			cfg, err := k.config(name, v)
			want := core.Defaults()
			k.set(&want, v)
			valid := want.Validate() == nil && want.WithDefaults() == want
			inRange := v >= k.min && v <= k.max
			switch {
			case valid != inRange:
				t.Errorf("knob %s: value %d in range %v, but valid %v", name, v, inRange, valid)
			case inRange && (err != nil || cfg != want):
				t.Errorf("knob %s: value %d: config %+v, %v; want %+v", name, v, cfg, err, want)
			case !inRange && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("knob %s: value %d outside its valid range [%d, %d]", name, v, k.min, k.max))):
				t.Errorf("knob %s: value %d: error %v, want one naming the knob and its range", name, v, err)
			}
		}
	}
	for _, c := range []struct {
		knob string
		v    int
		ok   bool
	}{{"chaindepth", 0, false}, {"chaindepth", -1, false}, {"interwarpdeg", 0, true}} {
		if _, err := knobs[c.knob].config(c.knob, c.v); (err == nil) != c.ok {
			t.Errorf("knob %s value %d: error %v, want accepted %v", c.knob, c.v, err, c.ok)
		}
	}
}

// TestKnobNamesSortedAndComplete pins the -listknobs contract: sorted output
// covering exactly the knob map.
func TestKnobNamesSortedAndComplete(t *testing.T) {
	names := knobNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("knob names not sorted: %v", names)
	}
	if len(names) != len(knobs) {
		t.Fatalf("knobNames returned %d names for %d knobs", len(names), len(knobs))
	}
	for _, n := range names {
		if _, ok := knobs[n]; !ok {
			t.Errorf("knobNames lists unknown knob %q", n)
		}
	}
}

// TestKnobsCoverIntConfigFields flags newly added integer Config fields that
// have no sweep knob, so the sweep surface keeps up with core.Config.
func TestKnobsCoverIntConfigFields(t *testing.T) {
	// Fields deliberately not sweepable via -knob (booleans have their own
	// mechanisms; these ints are covered elsewhere or not integer-valued).
	exempt := map[string]bool{
		"ThrottleCycles": false, // swept
	}
	covered := make(map[string]bool)
	for _, k := range knobs {
		base := core.Defaults()
		cfg := base
		k.set(&cfg, 31337)
		bv := reflect.ValueOf(base)
		cv := reflect.ValueOf(cfg)
		for i := 0; i < bv.NumField(); i++ {
			if !reflect.DeepEqual(bv.Field(i).Interface(), cv.Field(i).Interface()) {
				covered[bv.Type().Field(i).Name] = true
			}
		}
	}
	typ := reflect.TypeOf(core.Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Int || exempt[f.Name] {
			continue
		}
		if !covered[f.Name] {
			t.Errorf("int field core.Config.%s has no sweep knob", f.Name)
		}
	}
}
