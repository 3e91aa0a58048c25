package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/prefetch"
	"snake/internal/service"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// refsPath holds the reference digests, relative to the checkout root.
const refsPath = "perfbench/refs.json"

// ref is the recorded outcome of one cell, simulated by the plain serial
// fresh engine (sim.Run at Parallelism 1). results_all.txt predates the
// current engine and cannot serve as the reference.
type ref struct {
	// Stats digests the whole Result.Stats; Runner.Run and sim.Run ops are
	// checked against it.
	Stats string `json:"stats"`
	// Summary digests the wire summary snaked returns as RunView.Result.
	Summary string `json:"summary"`
	// Bytes is the stats' JSON size, what the cluster store charges its
	// memory tier; svc-resweep sizes its bounded tier from it.
	Bytes int `json:"bytes"`
}

// refs maps a cell id (cell.id, coldCell.id, wideID) to its reference.
type refs map[string]ref

func loadRefs(path string) (refs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r refs
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// digest is a short content hash of v's JSON encoding; every counter and
// every float bit participates, so one flipped counter changes it.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Stats and summaries are plain numbers; Marshal cannot fail on them.
		panic(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// summarize mirrors the summary snaked puts on the wire (RunView.Result).
func summarize(st *stats.Sim) *service.Result {
	return &service.Result{
		Cycles:    st.Cycles,
		Insts:     st.Insts,
		Loads:     st.Loads,
		IPC:       st.IPC(),
		Coverage:  st.Coverage(),
		Accuracy:  st.Accuracy(),
		L1HitRate: st.L1HitRate(),
	}
}

func refOf(st *stats.Sim) ref {
	b, _ := json.Marshal(st)
	return ref{Stats: digest(st), Summary: digest(summarize(st)), Bytes: len(b)}
}

// checkStats fails unless st is bit-identical to the reference for id.
func (r refs) checkStats(id string, st *stats.Sim) error {
	want, ok := r[id]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference", id)
	case st == nil:
		return fmt.Errorf("%s: no stats", id)
	case digest(st) != want.Stats:
		return fmt.Errorf("%s: stats digest %s, reference %s", id, digest(st), want.Stats)
	}
	return nil
}

// checkSummary fails unless a snaked RunView.Result matches the reference.
func (r refs) checkSummary(id string, res *service.Result) error {
	want, ok := r[id]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference", id)
	case res == nil:
		return fmt.Errorf("%s: no result", id)
	case digest(res) != want.Summary:
		return fmt.Errorf("%s: summary digest %s, reference %s", id, digest(res), want.Summary)
	}
	return nil
}

// refJob is one cell to simulate when recording.
type refJob struct {
	id  string
	k   *trace.Kernel
	cfg config.GPU
	pf  func(int) prefetch.Prefetcher
}

// record re-simulates every cell any seed can draw — the Fig. 18 grid, the
// wide kernels and the whole svc-cold design space — on a fresh serial
// engine each, and writes the digests to path. Run it by hand
// (perfbench -record) after a change meant to alter simulated results.
func record(path string) error {
	var jobs []refJob
	for _, c := range gridCells(workloads.Names()) {
		k, err := workloads.Shared().Kernel(c.bench, gridScale)
		if err != nil {
			return err
		}
		f, err := harness.Mechanism(c.mech)
		if err != nil {
			return err
		}
		jobs = append(jobs, refJob{c.id(), k, gridCfg, f})
	}
	for _, b := range wideBenches {
		k, err := workloads.Shared().Kernel(b, wideScale)
		if err != nil {
			return err
		}
		f, err := harness.Mechanism(wideMech)
		if err != nil {
			return err
		}
		jobs = append(jobs, refJob{wideID(b), k, wideCfg, f})
	}
	for _, b := range coldBenches {
		k, err := workloads.Shared().Kernel(b, gridScale)
		if err != nil {
			return err
		}
		for _, c := range coldSpace(b) {
			cfg := c.cfg
			jobs = append(jobs, refJob{c.id(), k, gridCfg, func(int) prefetch.Prefetcher { return core.New(cfg) }})
		}
	}

	out := make(refs, len(jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	next := make(chan refJob)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				res, err := sim.Run(j.k, sim.Options{Config: j.cfg, NewPrefetcher: j.pf, Parallelism: 1})
				if err != nil {
					errs <- fmt.Errorf("%s: %w", j.id, err)
					for range next {
					}
					return
				}
				mu.Lock()
				out[j.id] = refOf(&res.Stats)
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
