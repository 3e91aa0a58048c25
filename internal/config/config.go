// Package config holds the GPU configuration used by the simulator.
//
// The default configuration models the NVIDIA Volta V100 parameters from
// Table 1 of the Snake paper (MICRO '23). Experiments typically run a scaled
// configuration (fewer SMs, shorter kernels) produced by Scaled, which keeps
// all per-SM structure sizes intact so prefetcher behaviour is unchanged.
package config

import (
	"errors"
	"fmt"
)

// DRAMTiming holds the DRAM timings the controller models, in memory-clock
// cycles (Table 1 lists them in ns; we interpret them as controller cycles).
type DRAMTiming struct {
	TRCD  int // row-to-column delay (activate to read)
	TRAS  int // row active time
	TRP   int // row precharge time
	TRC   int // row cycle time (activate to activate, same bank)
	TCL   int // CAS latency
	TCCDL int // long column-to-column delay (same bank group)
}

// DefaultDRAMTiming returns the Table 1 DRAM parameters.
func DefaultDRAMTiming() DRAMTiming {
	return DRAMTiming{TRCD: 12, TRAS: 28, TRP: 12, TRC: 40, TCL: 12, TCCDL: 2}
}

// CacheGeom describes a set-associative cache.
type CacheGeom struct {
	SizeBytes int
	Ways      int
	LineSize  int
	Latency   int // access (hit) latency in core cycles
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int {
	lines := g.SizeBytes / g.LineSize
	if g.Ways <= 0 {
		return lines
	}
	s := lines / g.Ways
	if s < 1 {
		return 1
	}
	return s
}

// Lines returns the total number of cache lines.
func (g CacheGeom) Lines() int { return g.SizeBytes / g.LineSize }

// Validate checks that the geometry can be built: the cache indexes sets
// and lines by bit masks, so both counts must be powers of two.
func (g CacheGeom) Validate() error {
	switch {
	case g.SizeBytes <= 0:
		return errors.New("cache size must be positive")
	case g.LineSize <= 0:
		return errors.New("line size must be positive")
	case g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("line size %d is not a power of two", g.LineSize)
	case g.SizeBytes%g.LineSize != 0:
		return fmt.Errorf("cache size %d not a multiple of line size %d", g.SizeBytes, g.LineSize)
	case g.Ways <= 0:
		return errors.New("associativity must be positive")
	case g.Lines()%g.Ways != 0:
		return fmt.Errorf("line count %d not a multiple of ways %d", g.Lines(), g.Ways)
	case g.Sets()&(g.Sets()-1) != 0:
		return fmt.Errorf("%d bytes at %d ways of %d-byte lines give %d sets, not a power of two",
			g.SizeBytes, g.Ways, g.LineSize, g.Sets())
	}
	return nil
}

// SchedulerPolicy selects the warp scheduling policy.
type SchedulerPolicy string

// Supported scheduler policies.
const (
	SchedGTO    SchedulerPolicy = "gto" // Greedy-Then-Oldest (Table 1 default)
	SchedLRR    SchedulerPolicy = "lrr" // loose round-robin
	SchedOldest SchedulerPolicy = "oldest"
)

// GPU is the machine the engine models; Table 1 values it does not model
// have no field (DESIGN.md "Table 1 values not modelled").
type GPU struct {
	// Core organization.
	NumSM           int
	CoreClockMHz    int
	SchedulersPerSM int
	WarpSize        int
	Scheduler       SchedulerPolicy
	// MLPPerWarp is the per-warp memory-level-parallelism window: how many
	// loads a warp may have in flight before it blocks.
	MLPPerWarp int

	// Unified L1 data cache / shared memory (per SM).
	Unified      CacheGeom
	SharedMemPer int // bytes of the unified space carved out as shared memory

	// MSHR file (per SM L1).
	MSHREntries   int
	MSHRMergeCap  int
	MissQueueSize int

	// Interconnect between the L1s and the L2 partitions.
	IcntBytesPerCycle int // peak bytes per core cycle per SM port
	IcntLatency       int // base one-way latency in cycles

	// L2 (per sub-partition; the simulator instantiates L2Partitions of them).
	L2            CacheGeom
	L2Partitions  int
	DRAM          DRAMTiming
	DRAMBanks     int
	DRAMRowBytes  int
	DRAMClockxfer int // core cycles per DRAM data transfer
	// FillsPerPartition × L2Partitions caps outstanding fill requests
	// (finite L2/DRAM queueing): at the cap, L1 miss queues back up and
	// demand accesses suffer reservation fails (§2). Table 1 does not give
	// it; see DESIGN.md "Simulation scale".
	FillsPerPartition int

	MaxWarpsPerSM int // warp slots per SM; they alone bound CTA residency
}

// Default returns the Table 1 V100-like configuration.
func Default() GPU {
	return GPU{
		NumSM:           80,
		CoreClockMHz:    1530,
		SchedulersPerSM: 4,
		WarpSize:        32,
		Scheduler:       SchedGTO,
		MLPPerWarp:      2,
		Unified: CacheGeom{
			SizeBytes: 128 * 1024,
			Ways:      256,
			LineSize:  128,
			Latency:   28,
		},
		SharedMemPer:      0,
		MSHREntries:       512,
		MSHRMergeCap:      8,
		MissQueueSize:     8,
		IcntBytesPerCycle: 128,
		IcntLatency:       100,
		L2: CacheGeom{
			SizeBytes: 96 * 1024,
			Ways:      24,
			LineSize:  128,
			Latency:   212 - 100, // Table 1's 212 cycles include the interconnect round trip
		},
		L2Partitions:      32,
		DRAM:              DefaultDRAMTiming(),
		DRAMBanks:         16,
		DRAMRowBytes:      2048,
		DRAMClockxfer:     2,
		FillsPerPartition: 128,
		MaxWarpsPerSM:     64,
	}
}

// Scaled returns a configuration suitable for fast experiments: numSM SMs and
// warpsPerSM warps per SM, with per-SM cache/MSHR structures untouched except
// that the L2 is consolidated into a small number of partitions. Prefetcher
// state is per-SM, so the scaling does not change relative prefetcher
// behaviour.
func Scaled(numSM, warpsPerSM int) GPU {
	g := Default()
	g.NumSM = numSM
	g.MaxWarpsPerSM = warpsPerSM
	// Kernels carve shared memory out of the unified 128KB (§3.2); the
	// remainder is what the prefetch space and L1 data space share.
	g.SharedMemPer = 64 * 1024
	g.L2Partitions = 8
	g.L2.SizeBytes = 512 * 1024 / g.L2Partitions
	g.L2.Ways = 16
	return g
}

// Upper limits Validate puts on the sizes the engine allocates from and the
// latencies it waits out. A configuration can arrive over the network
// (snaked's "gpu" override), so without them one request could allocate
// without bound or hold a core for MaxCycles. Each limit is 4× its Table 1
// value, or 4× its default where Table 1 gives none. An engine built at every size limit at once holds about
// 165 MB under Isolated-Snake, whose side buffer adds to each L1.
const (
	// LimitNumSM bounds the SM count: each SM owns an L1, an MSHR file and a
	// warp array.
	LimitNumSM = 4 * 80
	// LimitWarpsPerSM bounds each SM's warp slots, readiness arrays and
	// scheduler slices.
	LimitWarpsPerSM = 4 * 64
	// LimitSchedulersPerSM bounds the scheduler slices per SM.
	LimitSchedulersPerSM = 4 * 4
	// LimitWarpSize bounds the threads the coalescer visits per warp access.
	LimitWarpSize = 4 * 32
	// LimitMLPPerWarp bounds the loads a warp may have in flight.
	LimitMLPPerWarp = 4 * 2
	// LimitUnifiedBytes bounds each SM's unified L1 arrays and tag index.
	LimitUnifiedBytes = 4 * 128 << 10
	// LimitL2Bytes bounds each L2 partition's arrays and tag index.
	LimitL2Bytes = 4 * 96 << 10
	// LimitMSHREntries bounds each SM's MSHR file and its in-flight table.
	LimitMSHREntries = 4 * 512
	// LimitMSHRMergeCap bounds the waiter list of one MSHR entry.
	LimitMSHRMergeCap = 4 * 8
	// LimitMissQueueSize bounds each L1 miss queue.
	LimitMissQueueSize = 4 * 8
	// LimitIcntBytesPerCycle bounds the per-SM port width; the network's
	// budget is this times NumSM.
	LimitIcntBytesPerCycle = 4 * 128
	// LimitL2Partitions bounds the partition count: each partition owns an
	// L2 and a DRAM controller.
	LimitL2Partitions = 4 * 32
	// LimitDRAMBanks bounds each DRAM controller's bank array.
	LimitDRAMBanks = 4 * 16
	// LimitFillsPerPartition bounds the outstanding fills per partition.
	LimitFillsPerPartition = 4 * 128
	// LimitLatency bounds every core-clock latency (L1, L2, interconnect):
	// 4× Table 1's longest, the 212-cycle L2 round trip.
	LimitLatency = 4 * 212
	// LimitDRAMCycles bounds every DRAM timing and DRAMClockxfer: 4× Table 1's
	// longest timing, tRC = 40.
	LimitDRAMCycles = 4 * 40
)

// Validate checks that the engine can build and run the configuration:
// every count it allocates from is positive and within its limit, and every
// cache geometry, the L1 data space carved out by SharedMemPer included,
// can be constructed.
func (g GPU) Validate() error {
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"NumSM", g.NumSM, LimitNumSM},
		{"SchedulersPerSM", g.SchedulersPerSM, LimitSchedulersPerSM},
		{"WarpSize", g.WarpSize, LimitWarpSize},
		{"MaxWarpsPerSM", g.MaxWarpsPerSM, LimitWarpsPerSM},
		{"MLPPerWarp", g.MLPPerWarp, LimitMLPPerWarp},
		{"MSHREntries", g.MSHREntries, LimitMSHREntries},
		{"MSHRMergeCap", g.MSHRMergeCap, LimitMSHRMergeCap},
		{"MissQueueSize", g.MissQueueSize, LimitMissQueueSize},
		{"IcntBytesPerCycle", g.IcntBytesPerCycle, LimitIcntBytesPerCycle},
		{"L2Partitions", g.L2Partitions, LimitL2Partitions},
		{"DRAMBanks", g.DRAMBanks, LimitDRAMBanks},
		{"DRAMClockxfer", g.DRAMClockxfer, LimitDRAMCycles},
		{"FillsPerPartition", g.FillsPerPartition, LimitFillsPerPartition},
	} {
		if f.val <= 0 || f.val > f.max {
			return fmt.Errorf("config: %s %d must be in [1, %d]", f.name, f.val, f.max)
		}
	}
	if g.DRAMRowBytes <= 0 {
		return fmt.Errorf("config: DRAMRowBytes %d must be positive", g.DRAMRowBytes)
	}
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"Unified.Latency", g.Unified.Latency, LimitLatency},
		{"L2.Latency", g.L2.Latency, LimitLatency},
		{"IcntLatency", g.IcntLatency, LimitLatency},
		{"DRAM.TRCD", g.DRAM.TRCD, LimitDRAMCycles},
		{"DRAM.TRAS", g.DRAM.TRAS, LimitDRAMCycles},
		{"DRAM.TRP", g.DRAM.TRP, LimitDRAMCycles},
		{"DRAM.TRC", g.DRAM.TRC, LimitDRAMCycles},
		{"DRAM.TCL", g.DRAM.TCL, LimitDRAMCycles},
		{"DRAM.TCCDL", g.DRAM.TCCDL, LimitDRAMCycles},
	} {
		if f.val < 0 || f.val > f.max {
			return fmt.Errorf("config: %s %d must be in [0, %d]", f.name, f.val, f.max)
		}
	}
	if err := g.Unified.Validate(); err != nil {
		return fmt.Errorf("config: Unified: %w", err)
	}
	if g.Unified.SizeBytes > LimitUnifiedBytes {
		return fmt.Errorf("config: Unified.SizeBytes %d exceeds %d", g.Unified.SizeBytes, LimitUnifiedBytes)
	}
	if g.SharedMemPer < 0 || g.SharedMemPer >= g.Unified.SizeBytes {
		return fmt.Errorf("config: SharedMemPer %d must be in [0, unified size)", g.SharedMemPer)
	}
	data := g.Unified
	data.SizeBytes = g.DataCacheBytes()
	if err := data.Validate(); err != nil {
		return fmt.Errorf("config: L1 data space (Unified minus SharedMemPer %d): %w", g.SharedMemPer, err)
	}
	if err := g.L2.Validate(); err != nil {
		return fmt.Errorf("config: L2: %w", err)
	}
	if g.L2.SizeBytes > LimitL2Bytes {
		return fmt.Errorf("config: L2.SizeBytes %d exceeds %d", g.L2.SizeBytes, LimitL2Bytes)
	}
	if g.L2.Latency < 1 {
		// The engine computes L2 responses in the epoch's partition ticks,
		// after the drain; that is exact only because a response to a
		// request arriving at cycle C can never be sendable before C+1,
		// which needs at least one cycle of L2 latency.
		return errors.New("config: L2 latency must be at least 1 cycle")
	}
	if g.SlackBound() < 1 {
		// A zero bound would silently degenerate the engine to per-cycle
		// barriers; surface the offending term instead.
		a := g.SlackAudit()
		return fmt.Errorf("config: derived slack bound is %d (%s = %d); every cross-boundary latency must be at least 1 cycle for bounded-slack ticking — raise IcntLatency and L2 latency to at least 1",
			a.Bound, a.Limiting().Name, a.Limiting().Latency)
	}
	return nil
}

// SlackTerm is one cross-boundary latency considered by the slack audit.
type SlackTerm struct {
	Name    string // which latency this is
	Latency int    // cycles
	Why     string // why the term bounds slack (or why it does not bind tighter)
}

// SlackAudit derives the engine's provable slack window from the
// configuration: how many consecutive cycles the work units (SM shards and
// L2 partitions) may tick between barriers while remaining bit-identical to
// per-cycle barriers. The bound is the minimum latency on any path by which
// one unit's output becomes another unit's input:
//
//   - L1 miss → L2 response: a request serviced at cycle C yields a response
//     with readyAt ≥ C + L2.Latency (config validation enforces ≥ 1, and the
//     partition clamps in-flight merges to the same floor), so work produced
//     inside an epoch of length W ≤ L2.Latency cannot need routing within
//     that same epoch.
//   - Request/response networks: every injected packet is delivered at
//     ≥ send + IcntLatency + serialization, so a message sent at cycle C is
//     invisible to its destination for at least IcntLatency cycles.
//   - DRAM timing (TRCD/TCL/transfer) only ever adds on top of L2.Latency —
//     DRAM is reached through the L2 path — so it can never bind tighter and
//     contributes no separate term.
//
// SM-local state (L1 miss-queue occupancy, store buffers, freed CTA slots)
// crosses the boundary through cycle-stamped ports whose visibility the
// engine itself delays by the slack horizon, so those paths bound nothing
// here (see DESIGN.md "Bounded-slack ticking").
type SlackAudit struct {
	Terms []SlackTerm
	Bound int // min over Terms; the provable slack window
}

// Limiting returns the term that set the bound.
func (a SlackAudit) Limiting() SlackTerm {
	lim := a.Terms[0]
	for _, t := range a.Terms[1:] {
		if t.Latency < lim.Latency {
			lim = t
		}
	}
	return lim
}

// SlackAudit returns the full derivation; SlackBound returns just the bound.
func (g GPU) SlackAudit() SlackAudit {
	a := SlackAudit{Terms: []SlackTerm{
		{
			Name:    "L2.Latency",
			Latency: g.L2.Latency,
			Why:     "a response to a request serviced at cycle C has readyAt ≥ C + L2.Latency (in-flight merges are clamped to the same floor), so responses never become sendable inside the epoch that computed them",
		},
		{
			Name:    "IcntLatency",
			Latency: g.IcntLatency,
			Why:     "every packet crossing the interconnect is delivered at ≥ send + IcntLatency, so a message injected inside an epoch arrives after it",
		},
	}}
	a.Bound = a.Terms[0].Latency
	for _, t := range a.Terms[1:] {
		if t.Latency < a.Bound {
			a.Bound = t.Latency
		}
	}
	return a
}

// SlackBound returns the provable slack window: the minimum cross-unit
// communication latency in cycles. The engine may tick work units up to this
// many consecutive cycles between barriers without changing any statistic.
func (g GPU) SlackBound() int { return g.SlackAudit().Bound }

// DataCacheBytes returns the unified-cache space left after the shared-memory
// carve-out; this is the space split between L1 data and prefetch storage.
func (g GPU) DataCacheBytes() int { return g.Unified.SizeBytes - g.SharedMemPer }

// DataCacheLines returns DataCacheBytes in cache lines.
func (g GPU) DataCacheLines() int { return g.DataCacheBytes() / g.Unified.LineSize }
