// Package icnt models the interconnection network between the per-SM L1
// caches and the shared L2 banks: a serialized, bandwidth-limited link with
// a base traversal latency, bounded backlog (backpressure), and the
// sliding-window utilization measurement that drives both Figure 4 and
// Snake's bandwidth throttle.
package icnt

// Config describes the interconnect fabric.
type Config struct {
	BytesPerCycle int // peak bytes accepted per cycle
	Latency       int // base one-way traversal latency in cycles
	WindowCycles  int // utilization measurement window (default 256)
	// MaxBacklogCycles bounds the send queue: a send is refused when the
	// link is already booked this far ahead (default 16).
	MaxBacklogCycles int
}

// Network serializes packets over a shared link. Time is tracked in
// byte-slots: one cycle provides BytesPerCycle slots; a packet of size S
// occupies S consecutive slots. Senders call TrySend; when the link's
// backlog exceeds the bound the send is refused and the sender retries
// later (backpressure).
type Network struct {
	cfg Config

	cycle    int64
	nextFree int64 // first free byte-slot (byte-time units)

	// Sliding utilization window.
	window    []int
	windowSum int64
	windowPos int
	usedThis  int

	totalBytes int64
}

// New builds a network, applying defaults for zero fields.
func New(cfg Config) *Network {
	if cfg.WindowCycles <= 0 {
		cfg.WindowCycles = 256
	}
	if cfg.MaxBacklogCycles <= 0 {
		cfg.MaxBacklogCycles = 16
	}
	return &Network{cfg: cfg, window: make([]int, cfg.WindowCycles)}
}

// Tick advances the network to the given cycle, rolling the utilization
// window forward one cycle at a time.
func (n *Network) Tick(cycle int64) {
	for n.cycle < cycle {
		n.cycle++
		n.windowPos = (n.windowPos + 1) % len(n.window)
		n.windowSum -= int64(n.window[n.windowPos])
		n.window[n.windowPos] = 0
		n.usedThis = 0
	}
}

// Reset restores the network to its just-constructed state — clock, booked
// byte-slots, utilization window and byte counters all return to zero — so a
// recycled engine can reuse the window buffer instead of reallocating it.
func (n *Network) Reset() {
	n.cycle = 0
	n.nextFree = 0
	clear(n.window)
	n.windowSum = 0
	n.windowPos = 0
	n.usedThis = 0
	n.totalBytes = 0
}

// TrySend attempts to inject size bytes. On success it returns the delivery
// cycle (serialization time plus base latency) and true; when the link's
// backlog bound is exceeded it returns false and the caller must retry.
func (n *Network) TrySend(size int) (deliverAt int64, ok bool) {
	bpc := int64(n.cfg.BytesPerCycle)
	now := n.cycle * bpc
	start := n.nextFree
	if start < now {
		start = now
	}
	backlog := start - now
	if backlog > int64(n.cfg.MaxBacklogCycles)*bpc {
		return 0, false
	}
	end := start + int64(size)
	n.nextFree = end
	// The last byte clears the link at byte-slot end; convert to cycles.
	doneCycle := (end + bpc - 1) / bpc
	n.window[n.windowPos] += size
	n.windowSum += int64(size)
	n.usedThis += size
	n.totalBytes += int64(size)
	return doneCycle + int64(n.cfg.Latency), true
}

// Utilization returns the fraction of peak bandwidth used over the sliding
// window (0..1).
func (n *Network) Utilization() float64 {
	peak := int64(n.cfg.BytesPerCycle) * int64(len(n.window))
	if peak == 0 {
		return 0
	}
	u := float64(n.windowSum) / float64(peak)
	if u > 1 {
		u = 1
	}
	return u
}

// TotalBytes returns the bytes transferred since construction.
func (n *Network) TotalBytes() int64 { return n.totalBytes }

// PeakBytes returns the theoretical byte capacity through the given cycle.
func (n *Network) PeakBytes(cycles int64) int64 {
	return int64(n.cfg.BytesPerCycle) * cycles
}

// Latency returns the configured base one-way latency.
func (n *Network) Latency() int { return n.cfg.Latency }

// Backlog returns the currently booked cycles of link time.
func (n *Network) Backlog() int64 {
	now := n.cycle * int64(n.cfg.BytesPerCycle)
	if n.nextFree <= now {
		return 0
	}
	return (n.nextFree - now) / int64(n.cfg.BytesPerCycle)
}
