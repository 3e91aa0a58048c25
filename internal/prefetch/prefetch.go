// Package prefetch defines the prefetcher interface the simulator drives and
// implements the comparison-point mechanisms of the Snake paper (§4):
// Intra-warp, Inter-warp, MTA (Many-Thread-Aware), CTA-aware, Tree (spatial
// chunk), and the Ideal oracle. Snake itself lives in internal/core.
package prefetch

// AccessEvent describes one demand load observed at the L1 of an SM.
// Reservation-fail retries are not reported; each dynamic load produces
// exactly one event, when it is accepted by the L1.
type AccessEvent struct {
	Cycle     int64
	SM        int
	CTAID     int    // global CTA id
	CTABase   uint64 // the CTA's base data address (for CTA-aware)
	WarpID    int    // warp slot within the SM (hardware warp id)
	WarpInCTA int    // warp index within its CTA
	PC        uint64
	Addr      uint64 // coalesced base (thread 0) address
	LineAddr  uint64
	Hit       bool
	SeqInWarp int // dynamic load index within the warp

	// Oracle fields (populated only for the Ideal oracle, see WantsOracle):
	// the PCs and base addresses of the warp's next loads in program order.
	FuturePCs   []uint64
	FutureAddrs []uint64
}

// WantsOracle reports whether a prefetcher is the Ideal oracle. The
// simulator populates the future fields only for it, and installs its
// requests with zero latency and no bandwidth, MSHR or queue cost.
func WantsOracle(p Prefetcher) bool {
	_, ok := p.(*Ideal)
	return ok
}

// StorageHint is implemented by prefetchers that need a particular L1
// storage organization (Snake's decoupled unified cache, Isolated-Snake's
// side buffer). The simulator queries it whenever it installs a new
// prefetcher, to reconfigure that SM's L1 (cache.L1.Reconfigure).
type StorageHint interface {
	// Storage returns (decoupled, isolated).
	Storage() (decoupled, isolated bool)
}

// Request is one prefetch candidate produced by a prefetcher.
type Request struct {
	Addr uint64
}

// Env exposes memory-system signals to throttling prefetchers.
type Env interface {
	// Utilization returns the interconnect's sliding-window bandwidth
	// utilization in [0,1].
	Utilization() float64
	// FreeFraction returns the fraction of unified-cache lines free.
	FreeFraction() float64
	// ConfineL1 restricts the L1 data space to its designated half until the
	// given cycle (Snake's throttle side effect, §3.2).
	ConfineL1(until int64)
}

// Outcome tells an OutcomeObserver what happened to one prefetch request.
type Outcome uint8

// Prefetch request outcomes as seen by the prefetcher.
const (
	OutcomeIssued    Outcome = iota // physically issued toward L2
	OutcomeDuplicate                // line already present or in flight
	OutcomeNoRoom                   // MSHR/queue pressure: dropped
	OutcomeNoSpace                  // unified space exhausted: the L1 freed
	//                                 25% by LRU and the request was dropped
)

// OutcomeObserver is implemented by prefetchers that react to the fate of
// their requests — Snake's space throttle triggers on OutcomeNoSpace (§3.3
// condition 1).
type OutcomeObserver interface {
	OnPrefetchOutcome(addr uint64, oc Outcome, cycle int64, env Env)
}

// Prefetcher is the per-SM prefetch engine interface.
type Prefetcher interface {
	// Name returns the mechanism name used in reports.
	Name() string
	// OnAccess observes a demand load and returns prefetch candidates. The
	// returned slice is valid until the next call: prefetchers return their
	// candidates in one buffer they reuse, so the per-access path does not
	// allocate.
	OnAccess(ev AccessEvent) []Request
	// OnCycle is called once per simulated cycle before issue.
	OnCycle(cycle int64, env Env)
	// Trained reports whether the prefetcher considers itself trained; the
	// L1 keeps the data space capped at 50% until this turns true (§3.2).
	Trained() bool
	// Reset clears all state (between kernels).
	Reset()
}

// Null is the no-prefetching baseline.
type Null struct{}

// Name implements Prefetcher.
func (Null) Name() string { return "baseline" }

// OnAccess implements Prefetcher.
func (Null) OnAccess(AccessEvent) []Request { return nil }

// OnCycle implements Prefetcher.
func (Null) OnCycle(int64, Env) {}

// Trained implements Prefetcher; the baseline never caps the L1.
func (Null) Trained() bool { return true }

// Reset implements Prefetcher.
func (Null) Reset() {}

// nopCycle provides default OnCycle/Trained for simple prefetchers.
type nopCycle struct{}

func (nopCycle) OnCycle(int64, Env) {}
func (nopCycle) Trained() bool      { return true }

// strideRequests appends the degree addresses addr+stride, addr+2*stride, …
// to reqs.
func strideRequests(reqs []Request, addr uint64, stride int64, degree int) []Request {
	for d := 1; d <= degree; d++ {
		reqs = append(reqs, Request{Addr: uint64(int64(addr) + stride*int64(d))})
	}
	return reqs
}

// ring is a first-in-first-out queue over a circular buffer that doubles
// when full and keeps its storage across reset, so a queue held at a
// bounded length allocates nothing once it has reached it.
type ring[K any] struct {
	buf     []K
	head, n int
}

func (r *ring[K]) push(k K) {
	if r.n == len(r.buf) {
		buf := make([]K, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = k
	r.n++
}

func (r *ring[K]) pop() K {
	k := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return k
}

func (r *ring[K]) reset() { r.head, r.n = 0, 0 }
