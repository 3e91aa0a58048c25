package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"snake/internal/core"
)

// TestEveryKnobMutatesConfig asserts each sweepable knob actually changes
// core.Config — a knob whose setter writes the wrong field (or none) would
// silently sweep nothing.
func TestEveryKnobMutatesConfig(t *testing.T) {
	base := core.Defaults()
	seen := make(map[string]string) // fingerprint -> knob that produced it
	for name, set := range knobs {
		cfg := core.Defaults()
		set(&cfg, 7777)
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("knob %q does not mutate core.Config", name)
			continue
		}
		// Setting a second value must change the config again, so the knob
		// really forwards its argument.
		cfg2 := core.Defaults()
		set(&cfg2, 8888)
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
	for _, set := range knobs {
		base := core.Defaults()
		cfg := base
		set(&cfg, 31337)
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
