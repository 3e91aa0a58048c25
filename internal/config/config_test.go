package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

// TestJSONRoundTrip: a GPU survives encoding/json unchanged. Cache keys
// hash its JSON, and a peer re-decodes a forwarded request's "gpu" from it.
func TestJSONRoundTrip(t *testing.T) {
	for name, g := range map[string]GPU{
		"default": Default(),
		"scaled":  Scaled(4, 64),
		"tiny":    Scaled(2, 16),
	} {
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back GPU
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(g, back) {
			t.Errorf("%s: round trip changed the config:\nbefore %+v\nafter  %+v", name, g, back)
		}
	}
}

func TestScaledValidates(t *testing.T) {
	for _, tc := range []struct{ sms, warps int }{{1, 8}, {4, 32}, {4, 64}, {8, 64}} {
		g := Scaled(tc.sms, tc.warps)
		if err := g.Validate(); err != nil {
			t.Errorf("Scaled(%d,%d) invalid: %v", tc.sms, tc.warps, err)
		}
		if g.NumSM != tc.sms {
			t.Errorf("Scaled(%d,%d).NumSM = %d", tc.sms, tc.warps, g.NumSM)
		}
		if g.MaxWarpsPerSM != tc.warps {
			t.Errorf("Scaled(%d,%d).MaxWarpsPerSM = %d", tc.sms, tc.warps, g.MaxWarpsPerSM)
		}
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{SizeBytes: 128 * 1024, Ways: 256, LineSize: 128}
	if got := g.Lines(); got != 1024 {
		t.Errorf("Lines() = %d, want 1024", got)
	}
	if got := g.Sets(); got != 4 {
		t.Errorf("Sets() = %d, want 4", got)
	}
}

func TestCacheGeomValidate(t *testing.T) {
	cases := []struct {
		name string
		g    CacheGeom
		want string
	}{
		{"zero size", CacheGeom{LineSize: 128, Ways: 4}, "size"},
		{"zero line", CacheGeom{SizeBytes: 1024, Ways: 4}, "line"},
		{"size not multiple", CacheGeom{SizeBytes: 1000, LineSize: 128, Ways: 2}, "multiple"},
		{"zero ways", CacheGeom{SizeBytes: 1024, LineSize: 128}, "associativity"},
		{"lines not multiple of ways", CacheGeom{SizeBytes: 1280, LineSize: 128, Ways: 3}, "multiple"},
		{"line size not a power of two", CacheGeom{SizeBytes: 960, LineSize: 96, Ways: 2}, "line size 96"},
		{"sets not a power of two", CacheGeom{SizeBytes: 48 << 10, LineSize: 128, Ways: 16}, "24 sets"},
	}
	for _, tc := range cases {
		err := tc.g.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestGPUValidateRejects(t *testing.T) {
	mutate := []struct {
		name string
		f    func(*GPU)
	}{
		{"no SMs", func(g *GPU) { g.NumSM = 0 }},
		{"no schedulers", func(g *GPU) { g.SchedulersPerSM = 0 }},
		{"no warps", func(g *GPU) { g.MaxWarpsPerSM = 0 }},
		{"shared too big", func(g *GPU) { g.SharedMemPer = g.Unified.SizeBytes }},
		{"no MSHR", func(g *GPU) { g.MSHREntries = 0 }},
		{"no miss queue", func(g *GPU) { g.MissQueueSize = 0 }},
		{"no icnt", func(g *GPU) { g.IcntBytesPerCycle = 0 }},
		{"no partitions", func(g *GPU) { g.L2Partitions = 0 }},
		{"no banks", func(g *GPU) { g.DRAMBanks = 0 }},
		{"bad unified", func(g *GPU) { g.Unified.Ways = 0 }},
		{"unified sets not a power of two", func(g *GPU) { g.Unified.SizeBytes = 96 << 10 }},
		{"L2 sets not a power of two", func(g *GPU) { g.L2.SizeBytes = 48 << 10; g.L2.Ways = 16 }},
		{"line size not a power of two", func(g *GPU) { g.L2.LineSize = 96; g.L2.SizeBytes = 96 * 768 }},
		{"data space sets not a power of two", func(g *GPU) { g.SharedMemPer = 32 << 10 }},
		{"data space not whole lines", func(g *GPU) { g.SharedMemPer = 1000 }},
		{"no DRAM rows", func(g *GPU) { g.DRAMRowBytes = 0 }},
		{"no DRAM transfer", func(g *GPU) { g.DRAMClockxfer = 0 }},
		{"negative DRAM timing", func(g *GPU) { g.DRAM.TCL = -1 }},
		{"negative L1 latency", func(g *GPU) { g.Unified.Latency = -1 }},
		{"no MLP", func(g *GPU) { g.MLPPerWarp = 0 }},
		{"no fills", func(g *GPU) { g.FillsPerPartition = 0 }},
		{"too many SMs", func(g *GPU) { g.NumSM = LimitNumSM + 1 }},
		{"too many warps", func(g *GPU) { g.MaxWarpsPerSM = LimitWarpsPerSM + 1 }},
		{"MLP too wide", func(g *GPU) { g.MLPPerWarp = LimitMLPPerWarp + 1 }},
		{"too many fills", func(g *GPU) { g.FillsPerPartition = LimitFillsPerPartition + 1 }},
		{"too many schedulers", func(g *GPU) { g.SchedulersPerSM = LimitSchedulersPerSM + 1 }},
		{"warp too wide", func(g *GPU) { g.WarpSize = LimitWarpSize + 1 }},
		{"too many MSHRs", func(g *GPU) { g.MSHREntries = LimitMSHREntries + 1 }},
		{"merge cap too big", func(g *GPU) { g.MSHRMergeCap = LimitMSHRMergeCap + 1 }},
		{"miss queue too deep", func(g *GPU) { g.MissQueueSize = LimitMissQueueSize + 1 }},
		{"icnt too wide", func(g *GPU) { g.IcntBytesPerCycle = LimitIcntBytesPerCycle + 1 }},
		{"too many partitions", func(g *GPU) { g.L2Partitions = LimitL2Partitions + 1 }},
		{"too many banks", func(g *GPU) { g.DRAMBanks = LimitDRAMBanks + 1 }},
		{"unified too big", func(g *GPU) { g.Unified.SizeBytes = 2 * LimitUnifiedBytes }},
		{"L2 too big", func(g *GPU) { g.L2.SizeBytes = 2 * LimitL2Bytes }},
		{"icnt too slow", func(g *GPU) { g.IcntLatency = LimitLatency + 1 }},
		{"L2 too slow", func(g *GPU) { g.L2.Latency = LimitLatency + 1 }},
		{"DRAM too slow", func(g *GPU) { g.DRAM.TRC = LimitDRAMCycles + 1 }},
		{"transfer too slow", func(g *GPU) { g.DRAMClockxfer = LimitDRAMCycles + 1 }},
	}
	for _, m := range mutate {
		g := Default()
		m.f(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestDataCacheBytes(t *testing.T) {
	g := Default()
	g.SharedMemPer = 32 * 1024
	if got := g.DataCacheBytes(); got != 96*1024 {
		t.Errorf("DataCacheBytes = %d, want %d", got, 96*1024)
	}
	if got := g.DataCacheLines(); got != 96*1024/128 {
		t.Errorf("DataCacheLines = %d, want %d", got, 96*1024/128)
	}
}

func TestDRAMTimingDefaults(t *testing.T) {
	d := DefaultDRAMTiming()
	// Spot-check against Table 1.
	if d.TRCD != 12 || d.TRAS != 28 || d.TRP != 12 || d.TRC != 40 || d.TCL != 12 {
		t.Errorf("DRAM timing mismatch with Table 1: %+v", d)
	}
}

func TestSlackAuditDerivation(t *testing.T) {
	g := Default()
	a := g.SlackAudit()
	if len(a.Terms) < 2 {
		t.Fatalf("audit lists %d terms, want at least the L2 and interconnect paths", len(a.Terms))
	}
	want := a.Terms[0].Latency
	byName := map[string]int{}
	for _, term := range a.Terms {
		if term.Name == "" || term.Why == "" {
			t.Errorf("term %+v missing name or justification", term)
		}
		byName[term.Name] = term.Latency
		if term.Latency < want {
			want = term.Latency
		}
	}
	if byName["L2.Latency"] != g.L2.Latency || byName["IcntLatency"] != g.IcntLatency {
		t.Errorf("audit terms %v do not reflect the config (L2=%d, Icnt=%d)", byName, g.L2.Latency, g.IcntLatency)
	}
	if a.Bound != want {
		t.Errorf("Bound = %d, want min over terms %d", a.Bound, want)
	}
	if g.SlackBound() != a.Bound {
		t.Errorf("SlackBound = %d, audit bound %d", g.SlackBound(), a.Bound)
	}
	if lim := a.Limiting(); lim.Latency != a.Bound {
		t.Errorf("Limiting() returned %+v, not a bound-setting term (bound %d)", lim, a.Bound)
	}
}

func TestSlackBoundTracksTighterTerm(t *testing.T) {
	g := Default()
	g.L2.Latency = 3
	if got := g.SlackBound(); got != 3 {
		t.Errorf("SlackBound = %d, want 3 (L2 latency binds)", got)
	}
	if lim := g.SlackAudit().Limiting(); lim.Name != "L2.Latency" {
		t.Errorf("Limiting term = %q, want L2.Latency", lim.Name)
	}
	g = Default()
	g.IcntLatency = 2
	if got := g.SlackBound(); got != 2 {
		t.Errorf("SlackBound = %d, want 2 (interconnect binds)", got)
	}
}

func TestValidateRejectsZeroSlackBound(t *testing.T) {
	g := Default()
	g.IcntLatency = 0
	err := g.Validate()
	if err == nil {
		t.Fatal("expected validation error for zero slack bound")
	}
	msg := err.Error()
	for _, needle := range []string{"slack bound", "IcntLatency"} {
		if !strings.Contains(msg, needle) {
			t.Errorf("error %q does not mention %q; the message must point at the offending term", msg, needle)
		}
	}
}
