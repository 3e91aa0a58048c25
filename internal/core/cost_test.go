package core

import "testing"

func TestDefaultCostMatchesTable3(t *testing.T) {
	c := DefaultCost()
	if c.HeadBytesPerEntry != 14 {
		t.Errorf("head bytes/entry = %d, want 14", c.HeadBytesPerEntry)
	}
	if c.HeadEntries != 32 {
		t.Errorf("head entries = %d, want 32", c.HeadEntries)
	}
	if c.HeadBytes() != 448 {
		t.Errorf("head total = %d, want 448 (Table 3)", c.HeadBytes())
	}
	if c.TailBytesPerEntry != 32 {
		t.Errorf("tail bytes/entry = %d, want 32", c.TailBytesPerEntry)
	}
	if c.TailEntries != 10 {
		t.Errorf("tail entries = %d, want 10", c.TailEntries)
	}
	if c.TailBytes() != 320 {
		t.Errorf("tail total = %d, want 320 (Table 3)", c.TailBytes())
	}
	if c.TotalBytes() != 768 {
		t.Errorf("total = %d, want 768", c.TotalBytes())
	}
}

func TestCostScalesWithEntries(t *testing.T) {
	var sw []int
	for _, n := range []int{5, 10, 20, 40} {
		cfg := Defaults()
		cfg.TailEntries = n
		sw = append(sw, CostOf(cfg).TotalBytes())
	}
	for i := 1; i < len(sw); i++ {
		if sw[i] <= sw[i-1] {
			t.Fatalf("storage not monotonic: %v", sw)
		}
	}
	// 10 entries is the Table 3 point.
	if sw[1] != 768 {
		t.Errorf("storage at 10 entries = %d, want 768", sw[1])
	}
}

func TestSingleSlotHeadIsSmaller(t *testing.T) {
	cfg := Defaults()
	cfg.HeadSlotsPerRow = 1
	c := CostOf(cfg)
	if c.HeadBytesPerEntry >= 14 {
		t.Errorf("three-column head entry = %d bytes, must be under the doubled 14", c.HeadBytesPerEntry)
	}
}

func TestPaperConstants(t *testing.T) {
	if AccessEnergyPJ != 6.4 || StaticPowerMW != 6.0 || LatencyCycles != 2 {
		t.Error("§5.5 constants drifted")
	}
}

func TestRoundUpPow2(t *testing.T) {
	for in, want := range map[int]int{1: 1, 2: 2, 3: 4, 17: 32, 29: 32, 32: 32} {
		if got := roundUpPow2(in); got != want {
			t.Errorf("roundUpPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
