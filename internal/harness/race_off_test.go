//go:build !race

package harness

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
