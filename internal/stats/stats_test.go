package stats

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestL1OutcomeString(t *testing.T) {
	for o, want := range map[L1Outcome]string{
		L1Hit: "hit", L1HitPrefetch: "hit-prefetch", L1Reserved: "reserved",
		L1Miss: "miss", L1ReservationFail: "reservation-fail",
	} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}

func TestRates(t *testing.T) {
	var s Sim
	s.Cycles = 100
	s.Insts = 250
	s.Loads = 100
	for i := 0; i < 40; i++ {
		s.AddL1(L1Hit)
	}
	for i := 0; i < 10; i++ {
		s.AddL1(L1HitPrefetch)
	}
	for i := 0; i < 30; i++ {
		s.AddL1(L1Miss)
	}
	for i := 0; i < 20; i++ {
		s.AddL1(L1Reserved)
	}
	for i := 0; i < 100; i++ {
		s.AddL1(L1ReservationFail)
	}
	if got := s.L1Accesses(); got != 200 {
		t.Errorf("L1Accesses = %d", got)
	}
	if got := s.L1HitRate(); got != 0.5 {
		t.Errorf("L1HitRate = %v, want 0.5 (fails excluded)", got)
	}
	if got := s.ReservationFailRate(); got != 0.5 {
		t.Errorf("ReservationFailRate = %v, want 0.5", got)
	}
	if got := s.IPC(); got != 2.5 {
		t.Errorf("IPC = %v", got)
	}
}

func TestCoverageAccuracy(t *testing.T) {
	var s Sim
	s.Loads = 100
	s.Pf.Covered = 80
	s.Pf.CoveredTimely = 60
	if got := s.Coverage(); got != 0.8 {
		t.Errorf("Coverage = %v", got)
	}
	if got := s.Accuracy(); got != 0.6 {
		t.Errorf("Accuracy = %v", got)
	}
	// Accuracy can never exceed coverage by construction of the counters;
	// both clamp at 1.
	s.Pf.Covered = 500
	if got := s.Coverage(); got != 1 {
		t.Errorf("clamped Coverage = %v", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var s Sim
	if s.IPC() != 0 || s.L1HitRate() != 0 || s.ReservationFailRate() != 0 ||
		s.BandwidthUtilization() != 0 || s.MemStallFraction() != 0 ||
		s.Coverage() != 0 || s.Accuracy() != 0 || s.PrefetchPrecision() != 0 {
		t.Error("zero-valued Sim must produce zero rates, not NaN")
	}
}

func TestMergeAdds(t *testing.T) {
	f := func(a, b uint16) bool {
		var x, y Sim
		x.Insts = int64(a)
		x.Pf.Issued = int64(a)
		x.StallMemory = int64(a)
		y.Insts = int64(b)
		y.Pf.Issued = int64(b)
		y.StallMemory = int64(b)
		x.Cycles = 10
		y.Cycles = 20
		x.Merge(&y)
		return x.Insts == int64(a)+int64(b) &&
			x.Pf.Issued == int64(a)+int64(b) &&
			x.StallMemory == int64(a)+int64(b) &&
			x.Cycles == 20 // max, not sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringContainsKeyFields(t *testing.T) {
	var s Sim
	s.Cycles = 10
	s.Insts = 20
	out := s.String()
	for _, want := range []string{"cycles=10", "insts=20", "ipc=2.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

func TestMemStallFraction(t *testing.T) {
	var s Sim
	s.StallMemory = 55
	s.StallOther = 45
	if got := s.MemStallFraction(); got != 0.55 {
		t.Errorf("MemStallFraction = %v", got)
	}
}

// randomSim fills every integer counter (recursively, including the L1
// outcome array and the Prefetch block) with a random value, so the
// partition-invariance property is checked over the whole schema and keeps
// covering fields added later. Float fields stay zero: Merge deliberately
// ignores EnergyJ (it is filled post-run), so random floats would only test
// that both sides drop them.
func randomSim(rng *rand.Rand) Sim {
	var s Sim
	fillRandom(reflect.ValueOf(&s).Elem(), rng)
	return s
}

func fillRandom(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Int64:
		v.SetInt(rng.Int63n(1_000_000))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(v.Field(i), rng)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillRandom(v.Index(i), rng)
		}
	}
}

// TestShardsMergePartitionInvariant is the property the engine's per-SM
// counters rest on: partitioning a stream of stat events across any number
// of per-shard blocks, in any assignment, and merging the blocks in shard
// order equals accumulating the stream serially.
func TestShardsMergePartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nEvents := 1 + rng.Intn(40)
		events := make([]Sim, nEvents)
		for i := range events {
			events[i] = randomSim(rng)
		}

		// Serial reference: one accumulator sees every event in order.
		var serial Sim
		for i := range events {
			serial.Merge(&events[i])
		}

		// Random shard partition: each event lands on a random shard, order
		// preserved within a shard (as the engine's fixed smID assignment
		// does), then shards merge in shard order.
		shards := make([]Sim, 1+rng.Intn(8))
		for i := range events {
			shards[rng.Intn(len(shards))].Merge(&events[i])
		}
		var got Sim
		for i := range shards {
			got.Merge(&shards[i])
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("trial %d: sharded total diverges from serial accumulation\n sharded: %+v\n serial:  %+v",
				trial, got, serial)
		}
	}
}
