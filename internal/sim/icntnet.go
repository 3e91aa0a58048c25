package sim

import (
	"snake/internal/config"
	"snake/internal/icnt"
)

// icntNet models the two directions of the SM<->L2 fabric as separate
// networks, as in real GPUs: a request network (small fill-request packets
// and store data) and a response network (full cache lines). The response
// direction carries the "transferred data between the L1 data cache and the
// L2 cache" that Figure 4 normalizes against, and is what Snake's bandwidth
// throttle observes.
type icntNet struct {
	req  *icnt.Network
	resp *icnt.Network
}

func newIcntNet(cfg config.GPU) *icntNet {
	mk := func() *icnt.Network {
		return icnt.New(icnt.Config{
			BytesPerCycle: cfg.IcntBytesPerCycle * cfg.NumSM,
			Latency:       cfg.IcntLatency,
		})
	}
	return &icntNet{req: mk(), resp: mk()}
}

// reset restores both directions to their just-constructed state.
func (n *icntNet) reset() {
	n.req.Reset()
	n.resp.Reset()
}

func (n *icntNet) tick(cycle int64) {
	n.req.Tick(cycle)
	n.resp.Tick(cycle)
}

// trySendReq injects a request-direction packet (fill request, store).
func (n *icntNet) trySendReq(size int) (int64, bool) { return n.req.TrySend(size) }

// trySendResp injects a response-direction packet (line fill).
func (n *icntNet) trySendResp(size int) (int64, bool) { return n.resp.TrySend(size) }

// utilization returns the response-direction sliding-window utilization.
func (n *icntNet) utilization() float64 { return n.resp.Utilization() }

// totalBytes returns data bytes moved in the response direction.
func (n *icntNet) totalBytes() int64 { return n.resp.TotalBytes() }

func (n *icntNet) peakBytes(cycles int64) int64 { return n.resp.PeakBytes(cycles) }
