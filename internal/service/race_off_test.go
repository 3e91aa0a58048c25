//go:build !race

package service

// raceEnabled reports whether the race detector instruments this build.
// Heap-size assertions skip under the detector: its shadow-memory
// bookkeeping allocates for itself.
const raceEnabled = false
