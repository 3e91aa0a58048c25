//go:build !race

package workloads

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
