// Package dram models off-chip memory: per-bank row-buffer state machines
// with the Table 1 timing parameters. Fetching data from global memory takes
// "hundreds to thousands of cycles, given the traffic" (§2); this model
// produces exactly that behaviour through bank conflicts and row misses.
package dram

import (
	"snake/internal/config"
	"snake/internal/stats"
)

// Controller is one memory controller governing a set of DRAM banks with
// open-page row-buffer policy. A controller is single-owner state: the
// simulation engine runs each controller only from its owning memory
// partition, on the engine's one goroutine, so it needs no internal locking.
type Controller struct {
	timing   config.DRAMTiming
	rowBytes uint64
	banks    []bank
	xferCyc  int64 // data transfer cycles per request

	// ms receives the traffic counters: the engine passes its one memory
	// counter block, shared by every partition's controller.
	ms *stats.Mem
}

type bank struct {
	openRow    uint64
	hasOpenRow bool
	readyAt    int64 // earliest cycle the bank can accept a new column access
	lastAct    int64 // cycle of the last activate (for tRC)
}

// New builds a controller with the given bank count and row size, counting
// traffic into ms.
func New(t config.DRAMTiming, banks int, rowBytes int, xferCycles int, ms *stats.Mem) *Controller {
	return &Controller{
		timing:   t,
		rowBytes: uint64(rowBytes),
		banks:    make([]bank, banks),
		xferCyc:  int64(xferCycles),
		ms:       ms,
	}
}

// Access services a read of lineAddr arriving at the given cycle and returns
// the cycle at which data is available.
func (c *Controller) Access(lineAddr uint64, cycle int64) int64 {
	c.ms.DRAMReads++
	row := lineAddr / c.rowBytes
	// Swizzled bank mapping: XOR-fold higher row bits so power-of-two
	// strides (ubiquitous in GPU kernels) spread across banks instead of
	// serializing on one.
	b := &c.banks[int((row^(row>>4)^(row>>8))%uint64(len(c.banks)))]

	start := cycle
	if b.readyAt > start {
		start = b.readyAt // queue behind the bank's previous operation
	}

	var dataAt int64
	if b.hasOpenRow && b.openRow == row {
		// Row hit: CAS latency only.
		c.ms.DRAMRowHits++
		dataAt = start + int64(c.timing.TCL) + c.xferCyc
		b.readyAt = start + int64(c.timing.TCCDL)
	} else {
		// Row miss: precharge (if a row is open) + activate + CAS.
		c.ms.DRAMRowMisses++
		pre := int64(0)
		if b.hasOpenRow {
			pre = int64(c.timing.TRP)
			// Respect tRC between consecutive activates on the same bank.
			if minAct := b.lastAct + int64(c.timing.TRC); start+pre < minAct {
				pre = minAct - start
			}
		}
		actAt := start + pre
		b.lastAct = actAt
		dataAt = actAt + int64(c.timing.TRCD) + int64(c.timing.TCL) + c.xferCyc
		b.readyAt = actAt + int64(c.timing.TRAS)
		b.openRow = row
		b.hasOpenRow = true
	}
	return dataAt
}

// Reset closes every bank's row, returning the banks to their
// just-constructed state without reallocating the bank array. The counters
// belong to the block's owner, which zeroes them itself.
func (c *Controller) Reset() {
	clear(c.banks)
}
