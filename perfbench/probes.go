package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"snake/internal/cluster"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/workloads"
)

// probeCell is the cell the standalone probes time: a mid-sized grid cell.
var probeCell = cell{"lps", "snake"}

// probeHarness times the harness layer's public calls on one cell: the
// engine pool's saving over a fresh engine, a memoized Runner.Run, and
// RunKey.Hash.
func probeHarness(e *env, l *layers) error {
	k, err := workloads.Shared().Kernel(probeCell.bench, gridScale)
	if err != nil {
		return err
	}
	f, err := harness.Mechanism(probeCell.mech)
	if err != nil {
		return err
	}
	opt := sim.Options{Config: gridCfg, NewPrefetcher: f}
	p := &pass{}
	fresh, err := medianTimed(5, func() error {
		res, err := sim.Run(k, opt)
		if err == nil {
			p.check(e.refs.checkStats(probeCell.id(), &res.Stats))
		}
		return err
	})
	if err != nil {
		return err
	}
	pool := harness.NewEnginePool()
	if _, err := pool.Run(k, opt, probeCell.mech); err != nil {
		return err
	}
	warm, err := medianTimed(5, func() error {
		res, err := pool.Run(k, opt, probeCell.mech)
		if err == nil {
			p.check(e.refs.checkStats(probeCell.id(), &res.Stats))
		}
		return err
	})
	if err != nil {
		return err
	}
	l.set("harness.pool_saving_ms", fresh-warm, "ms")

	r := harness.NewRunner()
	r.Budget = harness.NewBudget(1)
	if _, err := r.Run(probeCell.bench, probeCell.mech); err != nil {
		return err
	}
	hit, err := medianTimed(1000, func() error {
		st, err := r.Run(probeCell.bench, probeCell.mech)
		if err == nil && st == nil {
			err = fmt.Errorf("memoized run returned no stats")
		}
		return err
	})
	if err != nil {
		return err
	}
	l.set("harness.memo_hit_us", 1000*hit, "us")

	key := r.Key(probeCell.bench, probeCell.mech)
	hash, err := medianTimed(1000, func() error { _ = key.Hash(); return nil })
	if err != nil {
		return err
	}
	l.set("harness.key_hash_us", 1000*hash, "us")
	l.add(p)
	return nil
}

// probeStore times a standalone cluster.Store with svc-resweep's tier
// configuration (memory bounded to half the grid's result bytes, disk tier
// on): Put, a memory-tier Get and a disk-tier Get with its promotion.
func probeStore(e *env, l *layers) error {
	k, err := workloads.Shared().Kernel(probeCell.bench, gridScale)
	if err != nil {
		return err
	}
	f, err := harness.Mechanism(probeCell.mech)
	if err != nil {
		return err
	}
	res, err := sim.Run(k, sim.Options{Config: gridCfg, NewPrefetcher: f})
	if err != nil {
		return err
	}
	st := &res.Stats
	cells := gridCells(workloads.Names())
	s := cluster.NewStore(cluster.StoreOptions{MaxBytes: resultBytes(e, cells) / 2, Dir: filepath.Join(e.work, "store-probe")})
	keys := make([]string, len(cells))
	put := make([]float64, len(cells))
	for i, c := range cells {
		keys[i] = harness.RunKey{Bench: c.bench, Mech: c.mech, GPU: gridCfg, Scale: gridScale}.Hash()
		t := time.Now()
		s.Put(keys[i], st)
		put[i] = us(time.Since(t))
	}
	// The oldest keys were evicted to disk; the newest are resident. Time
	// the memory hits first (they only reorder the LRU), then the disk hits,
	// each of which promotes its entry and evicts the oldest resident one.
	n := len(keys) / 4
	get := func(key string, want cluster.Tier) (float64, error) {
		t := time.Now()
		got, tier := s.Get(context.Background(), key)
		d := us(time.Since(t))
		if got == nil || tier != want {
			return 0, fmt.Errorf("store probe: %s answered from %v, want %v", key, tier, want)
		}
		return d, nil
	}
	var disk, mem []float64
	for _, key := range keys[len(keys)-n:] {
		d, err := get(key, cluster.TierMemory)
		if err != nil {
			return err
		}
		mem = append(mem, d)
	}
	for _, key := range keys[:n] {
		d, err := get(key, cluster.TierDisk)
		if err != nil {
			return err
		}
		disk = append(disk, d)
	}
	l.set("cluster.put_us", median(put), "us")
	l.set("cluster.get_mem_us", median(mem), "us")
	l.set("cluster.get_disk_us", median(disk), "us")
	return nil
}
