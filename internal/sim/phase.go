package sim

import (
	"time"

	"snake/internal/profiling"
)

// phaseClock attributes the engine's wall clock to profiling phases. Each
// lap charges the time since the previous lap (or start) to the given phase.
// With no accumulator attached every method is a cheap no-op, so the cycle
// loop carries the laps unconditionally.
//
// Profiling must not change simulation results: the clock only reads
// time.Now between phases, and the schedule is the same with or without it.
// TestPhaseProfileEquivalence pins this.
type phaseClock struct {
	prof *profiling.Phases
	last time.Time
}

// start attaches the accumulator (nil disables the clock) and begins timing.
func (c *phaseClock) start(p *profiling.Phases) {
	c.prof = p
	if p != nil {
		c.last = time.Now()
	}
}

// lap charges the time since the previous lap to ph.
func (c *phaseClock) lap(ph profiling.Phase) {
	if c.prof == nil {
		return
	}
	now := time.Now()
	c.prof.Add(ph, now.Sub(c.last).Nanoseconds())
	c.last = now
}
