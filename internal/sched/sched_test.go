package sched

import (
	"testing"

	"snake/internal/config"
)

func TestGTOGreediness(t *testing.T) {
	s := New(config.SchedGTO)
	ready := []bool{true, true, true}
	age := []int64{3, 1, 2}
	// First pick: oldest (index 1).
	if got := s.Pick(setOf(ready), age); got != 1 {
		t.Fatalf("first pick = %d, want 1 (oldest)", got)
	}
	// Greedy: keeps picking 1 while ready.
	if got := s.Pick(setOf(ready), age); got != 1 {
		t.Fatalf("greedy pick = %d, want 1", got)
	}
	// 1 stalls: falls back to oldest ready (index 2, age 2).
	ready[1] = false
	if got := s.Pick(setOf(ready), age); got != 2 {
		t.Fatalf("fallback pick = %d, want 2", got)
	}
	// 1 becomes ready again but GTO sticks with its new greedy warp.
	ready[1] = true
	if got := s.Pick(setOf(ready), age); got != 2 {
		t.Fatalf("post-switch pick = %d, want 2 (greedy)", got)
	}
}

func TestGTONoneReady(t *testing.T) {
	s := New(config.SchedGTO)
	if got := s.Pick(setOf([]bool{false, false}), []int64{1, 2}); got != -1 {
		t.Errorf("pick with none ready = %d, want -1", got)
	}
}

func TestLRRRotates(t *testing.T) {
	s := New(config.SchedLRR)
	ready := []bool{true, true, true}
	age := []int64{1, 2, 3}
	var order []int
	for i := 0; i < 6; i++ {
		order = append(order, s.Pick(setOf(ready), age))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LRR order = %v, want %v", order, want)
		}
	}
}

func TestLRRSkipsStalled(t *testing.T) {
	s := New(config.SchedLRR)
	ready := []bool{false, true, false}
	if got := s.Pick(setOf(ready), make([]int64, len(ready))); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	if got := s.Pick(setOf([]bool{false, false, false}), make([]int64, 3)); got != -1 {
		t.Errorf("pick with none ready = %d, want -1", got)
	}
}

func TestOldestPolicy(t *testing.T) {
	s := New(config.SchedOldest)
	ready := []bool{true, true, true}
	age := []int64{5, 2, 9}
	for i := 0; i < 3; i++ {
		if got := s.Pick(setOf(ready), age); got != 1 {
			t.Fatalf("oldest pick = %d, want 1", got)
		}
	}
}

func TestNames(t *testing.T) {
	for _, p := range []config.SchedulerPolicy{config.SchedGTO, config.SchedLRR, config.SchedOldest} {
		if New(p).Name() != string(p) {
			t.Errorf("New(%q).Name() = %q", p, New(p).Name())
		}
	}
}
