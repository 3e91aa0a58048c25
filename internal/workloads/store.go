package workloads

import (
	"sync"
	"sync/atomic"

	"snake/internal/trace"
)

// Store interns built kernels: one immutable *trace.Kernel per (benchmark,
// Scale), built exactly once under singleflight and shared read-only by every
// caller thereafter. The simulator never mutates a kernel, so a single trace
// can back any number of concurrent runs — the harness runner, Prefill's
// mechanism fan-out and the snaked worker pool all draw from one store
// instead of regenerating the trace per run.
//
// Callers must treat returned kernels as immutable; a caller that needs a
// private copy must make one.
type Store struct {
	mu      sync.Mutex
	entries map[storeKey]*storeEntry
	builds  atomic.Int64
	bytes   atomic.Int64 // instruction bytes of the interned kernels (trace.Kernel.Bytes)
}

// storeKey identifies one interned kernel.
type storeKey struct {
	bench string
	sc    Scale
}

// storeEntry is one in-flight or completed build. The creating goroutine
// builds the kernel and closes done; other callers of the same key block on
// done.
type storeEntry struct {
	done chan struct{}
	k    *trace.Kernel
	err  error
}

// NewStore returns an empty kernel store.
func NewStore() *Store {
	return &Store{entries: make(map[storeKey]*storeEntry)}
}

// shared is the process-wide store all default call paths intern through.
var shared = NewStore()

// Shared returns the process-wide kernel store.
func Shared() *Store { return shared }

// Kernel returns the interned kernel for (bench, sc), building it on first
// use. Concurrent callers of the same key share one build: exactly one
// goroutine runs the generator, the rest wait. Failed builds (an unknown
// benchmark name, a scale Validate rejects) are not retained, so they do not
// grow the store.
func (s *Store) Kernel(bench string, sc Scale) (*trace.Kernel, error) {
	key := storeKey{bench: bench, sc: sc}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.mu.Unlock()
		<-e.done
		return e.k, e.err
	}
	e = &storeEntry{done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	e.k, e.err = Build(bench, sc)
	if e.err == nil {
		s.builds.Add(1)
		s.bytes.Add(e.k.Bytes())
	} else {
		s.mu.Lock()
		delete(s.entries, key)
		s.mu.Unlock()
	}
	close(e.done)
	return e.k, e.err
}

// Builds returns how many kernels this store has built — the proof that
// callers share traces instead of regenerating them (e.g. a Prefill over N
// mechanisms of one benchmark performs one build, not N).
func (s *Store) Builds() int64 { return s.builds.Load() }

// Bytes returns the instruction bytes the interned kernels hold, the bulk
// of their heap: per warp one byte per instruction and eight per load or
// store address, plus each kernel's static-instruction table.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// Len returns the number of interned kernels.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
