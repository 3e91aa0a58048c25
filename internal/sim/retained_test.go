package sim

import (
	"runtime"
	"testing"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/workloads"
)

// TestPooledEngineRetainedBytes bounds what a warm pooled engine keeps
// between runs. An engine's storage should follow the modelled machine —
// caches, MSHRs, queues, prefetcher tables — not the kernel's address
// footprint: a set of every predicted line kept for the run, or programs
// with append slack, would grow it with the trace. lib streams three large
// arrays with no reuse; under Snake at the default scale on the 4-SM grid
// config its engine holds about 1.0 MB once warm, and a per-line predicted
// set brings that to about 2.8 MB.
func TestPooledEngineRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the live heap")
	}
	const limit = 3 << 19 // 1.5 MB
	k, err := workloads.Build("lib", workloads.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Config:        config.Scaled(4, 64),
		NewPrefetcher: func(int) prefetch.Prefetcher { return core.NewSnake() },
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	en := NewEngine()
	for i := 0; i < 2; i++ { // the second run recycles the first's arenas
		if _, err := en.RunTagged(k, opt, "snake"); err != nil {
			t.Fatal(err)
		}
	}
	held := liveHeap() - before
	runtime.KeepAlive(en)
	runtime.KeepAlive(k)
	t.Logf("warm engine holds %.2f MB", float64(held)/(1<<20))
	if held > limit {
		t.Errorf("a warm pooled engine holds %.2f MB after lib/snake, want ≤ %.2f MB",
			float64(held)/(1<<20), float64(limit)/(1<<20))
	}
}
