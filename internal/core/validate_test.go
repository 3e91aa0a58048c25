package core

import (
	"math"
	"strings"
	"testing"
)

// TestConfigValidateAcceptsPaperSpace: the paper's defaults, every
// evaluated variant's config, and every point the repository's sweeps and the
// service benchmark's custom Snake configs reach pass Validate.
func TestConfigValidateAcceptsPaperSpace(t *testing.T) {
	ok := []Config{Defaults()}
	for _, s := range []*Snake{NewSimpleSnake(), NewSnakeDT(), NewSnakeT(), NewSnakePlusCTA(), NewIsolatedSnake()} {
		ok = append(ok, s.cfg)
	}
	for _, tail := range []int{3, 5, 10, 20, 40, 80, 1000} {
		for _, depth := range []int{1, 2, 4, 8} {
			for _, throttle := range []int{10, 25, 50, 100, 200, 400} {
				for _, intra := range []int{1, 2} {
					c := Defaults()
					c.TailEntries, c.ChainDepth, c.ThrottleCycles, c.IntraDegree = tail, depth, throttle, intra
					ok = append(ok, c)
				}
			}
		}
	}
	single := Defaults()
	single.HeadSlotsPerRow = 1
	noInterWarp := Defaults()
	noInterWarp.InterWarpDegree = 0
	ok = append(ok, single, noInterWarp)
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}

// TestConfigValidateNamesField: one field past its limit is rejected by
// name, and so is a zero or negative count: New takes a configuration
// literally, so a zero is a zero-sized table, not the paper's value.
func TestConfigValidateNamesField(t *testing.T) {
	for field, set := range map[string]func(*Config){
		"TailEntries":          func(c *Config) { c.TailEntries = LimitTailEntries + 1 },
		"HeadRows":             func(c *Config) { c.HeadRows = LimitHeadRows + 1 },
		"HeadSlotsPerRow":      func(c *Config) { c.HeadSlotsPerRow = LimitHeadSlotsPerRow + 1 },
		"PromoteWarps":         func(c *Config) { c.PromoteWarps = LimitPromoteWarps + 1 },
		"ChainDepth":           func(c *Config) { c.ChainDepth = LimitChainDepth + 1 },
		"InterWarpDegree":      func(c *Config) { c.InterWarpDegree = LimitDegree + 1 },
		"IntraDegree":          func(c *Config) { c.IntraDegree = LimitDegree + 1 },
		"BulkPromotionWarps":   func(c *Config) { c.BulkPromotionWarps = -1 },
		"ThrottleCycles":       func(c *Config) { c.ThrottleCycles = LimitThrottleCycles + 1 },
		"MaxRequestsPerAccess": func(c *Config) { c.MaxRequestsPerAccess = LimitMaxRequestsPerAccess + 1 },
		"BWHalt":               func(c *Config) { c.BWHalt = 1.5 },
		"BWResume":             func(c *Config) { c.BWResume = math.NaN() },
		"TailEntries 0":        func(c *Config) { c.TailEntries = 0 },
		"HeadRows 0":           func(c *Config) { c.HeadRows = 0 },
		"ChainDepth 0":         func(c *Config) { c.ChainDepth = 0 },
		"ThrottleCycles -1":    func(c *Config) { c.ThrottleCycles = -1 },
		"InterWarpDegree -1":   func(c *Config) { c.InterWarpDegree = -1 },
	} {
		c := Defaults()
		set(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s out of range: Validate() = %v, want an error naming it", field, err)
		}
	}
}
