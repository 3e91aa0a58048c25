package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"snake/internal/prefetch"
)

// Config holds Snake's tunable parameters. New builds a configuration as
// given, so a variant starts from Defaults and changes the fields it studies;
// a zero count is a value Validate rejects, not a request for the default.
type Config struct {
	// TailEntries is the Tail-table size (paper: 10, §5.5).
	TailEntries int
	// HeadRows is the Head-table row count (paper: #warps/2 = 32).
	HeadRows int
	// HeadSlotsPerRow doubles the warp-ID/base-address columns for greedy
	// schedulers (paper: 2; 1 reproduces the non-greedy, three-column form).
	HeadSlotsPerRow int
	// PromoteWarps is how many distinct warps must observe a stride before
	// it is promoted (paper: 3).
	PromoteWarps int
	// ChainDepth bounds how far down a chain prefetches are issued
	// (Figure 13); the throttle shrinks the effective depth under pressure.
	ChainDepth int
	// InterWarpDegree is how many future warps to prefetch for.
	InterWarpDegree int
	// BulkPromotionWarps, when positive, issues a one-time burst for this
	// many future warps the first time an inter-warp stride trains on a
	// promoted chain — the literal "all future warps" reading of §3.2. Off
	// by default: in this substrate the burst's cross-CTA misprojections
	// cost more than the extra lead time earns (see EXPERIMENTS.md D2).
	BulkPromotionWarps int
	// IntraDegree is how many loop iterations ahead to prefetch.
	IntraDegree int

	// DisableDecoupling stores prefetched lines as ordinary L1 data instead
	// of the decoupled prefetch space (§3.2) — the Snake-DT variant.
	DisableDecoupling bool
	// Isolated uses a buffer distinct from the unified memory
	// (Isolated-Snake, §5.7).
	Isolated bool

	// DisableThrottle turns off the §3.3 mechanism (Snake-DT/Snake-T).
	DisableThrottle bool
	// ThrottleCycles is the halt duration when the unified space is
	// exhausted (paper: 50, §5.4).
	ThrottleCycles int
	// BWHalt / BWResume are the bandwidth hysteresis thresholds
	// (paper: 0.70 / 0.50).
	BWHalt, BWResume float64

	// ChainsOnly disables the intra-warp and inter-warp stride components —
	// the s-Snake variant, which exploits only the chains of strides.
	ChainsOnly bool
	// DisableChains turns off the inter-thread chain component (ablation).
	DisableChains bool
	// EvictPopcountOnly replaces the combined LRU+popcount Tail eviction
	// policy with the popcount-only policy of Figure 22.
	EvictPopcountOnly bool

	// MaxRequestsPerAccess bounds the prefetch burst per demand access.
	MaxRequestsPerAccess int
}

// Defaults returns the paper's configuration.
func Defaults() Config {
	return Config{
		TailEntries:          10,
		HeadRows:             32,
		HeadSlotsPerRow:      2,
		PromoteWarps:         3,
		ChainDepth:           2,
		InterWarpDegree:      2,
		IntraDegree:          2,
		ThrottleCycles:       50,
		BWHalt:               0.70,
		BWResume:             0.50,
		MaxRequestsPerAccess: 8,
	}
}

// UnmarshalJSON decodes a configuration onto Defaults: a field the JSON
// omits keeps the paper's value, and a field it holds is taken literally.
// So snaked's "snake":{"TailEntries":5} is the paper's configuration with a
// 5-entry Tail table. A field Config does not have is an error.
func (c *Config) UnmarshalJSON(data []byte) error {
	type plain Config // plain has Config's fields but not this method
	d := plain(Defaults())
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return err
	}
	*c = Config(d)
	return nil
}

// Upper limits Validate puts on a configuration. A configuration can arrive
// over the network (snaked's "snake" override), and every SM builds its own
// tables from it, so without them one request could allocate without bound
// or make every load scan a table of any length. Most limits admit 4× the
// paper's value, or the largest point the repository's experiments sweep
// where that is larger; the others say why they sit where they do.
const (
	// LimitTailEntries bounds the Tail table: every SM allocates it, and
	// findByPC1 scans all of it on each chain step. It admits the 1000-entry
	// "unbounded" point of the tail-size sweep (Figs. 20 and 21).
	LimitTailEntries = 1024
	// LimitHeadRows bounds the Head table's rows: #warps/2 at 4× Table 1's
	// 64 warps per SM.
	LimitHeadRows = 4 * 32
	// LimitHeadSlotsPerRow bounds the slots each Head row holds and each
	// load scans.
	LimitHeadSlotsPerRow = 4 * 2
	// LimitPromoteWarps is the width of a Tail entry's warp bit vector; a
	// larger threshold could never be met.
	LimitPromoteWarps = 64
	// LimitChainDepth bounds the steps of one chain walk; each step scans
	// the Tail table.
	LimitChainDepth = 4 * 2
	// LimitDegree bounds InterWarpDegree and IntraDegree: the projections
	// one access makes, each of which may walk a chain.
	LimitDegree = 4 * 2
	// LimitBulkPromotionWarps bounds the one-time promotion burst, which
	// bypasses the per-access cap: all future warps of one SM at 4× Table
	// 1's 64 warps.
	LimitBulkPromotionWarps = 4 * 64
	// LimitThrottleCycles bounds the space-triggered halt: 4× the longest
	// interval of the throttle sweep (Fig. 23).
	LimitThrottleCycles = 4 * 400
	// LimitMaxRequestsPerAccess bounds the per-access burst, which each
	// push scans to drop duplicates.
	LimitMaxRequestsPerAccess = 4 * 8
)

// Validate checks the configuration as New would build it: every table
// size, degree and interval within its limit, and the bandwidth thresholds in
// [0, 1].
func (c Config) Validate() error {
	for _, f := range []struct {
		name          string
		val, min, max int
	}{
		{"TailEntries", c.TailEntries, 1, LimitTailEntries},
		{"HeadRows", c.HeadRows, 1, LimitHeadRows},
		{"HeadSlotsPerRow", c.HeadSlotsPerRow, 1, LimitHeadSlotsPerRow},
		{"PromoteWarps", c.PromoteWarps, 1, LimitPromoteWarps},
		{"ChainDepth", c.ChainDepth, 1, LimitChainDepth},
		{"InterWarpDegree", c.InterWarpDegree, 0, LimitDegree},
		{"IntraDegree", c.IntraDegree, 1, LimitDegree},
		{"BulkPromotionWarps", c.BulkPromotionWarps, 0, LimitBulkPromotionWarps},
		{"ThrottleCycles", c.ThrottleCycles, 1, LimitThrottleCycles},
		{"MaxRequestsPerAccess", c.MaxRequestsPerAccess, 1, LimitMaxRequestsPerAccess},
	} {
		if f.val < f.min || f.val > f.max {
			return fmt.Errorf("snake: %s %d must be in [%d, %d]", f.name, f.val, f.min, f.max)
		}
	}
	for _, f := range []struct {
		name string
		val  float64
	}{{"BWHalt", c.BWHalt}, {"BWResume", c.BWResume}} {
		if !(f.val >= 0 && f.val <= 1) {
			return fmt.Errorf("snake: %s %v must be in [0, 1]", f.name, f.val)
		}
	}
	return nil
}

// Snake is the chain-based prefetcher. One instance serves one SM.
type Snake struct {
	cfg  Config
	name string

	head *headTable
	tail *tailTable

	// Throttle state.
	haltedUntil int64   // space-triggered halt deadline
	bwHalted    bool    // bandwidth-triggered halt (hysteresis)
	throttled   int64   // total halted cycles (exported via ThrottleCycles)
	lastFree    float64 // last observed unified-cache free fraction
	lastUtil    float64 // last observed bandwidth utilization

	// Optional composed CTA-aware prefetcher (Snake+CTA).
	ctaPart prefetch.Prefetcher

	trained bool

	// Scratch request buffer reused across accesses.
	reqBuf []prefetch.Request
}

var _ prefetch.Prefetcher = (*Snake)(nil)
var _ prefetch.StorageHint = (*Snake)(nil)

// New builds a Snake prefetcher with the given configuration. Like
// regexp.MustCompile, it panics with Validate's error on a configuration
// Validate rejects: its tables could not be sized from it.
func New(cfg Config) *Snake {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Snake{
		cfg:      cfg,
		name:     "snake",
		head:     newHeadTable(cfg.HeadRows, cfg.HeadSlotsPerRow),
		tail:     newTailTable(cfg.TailEntries, !cfg.EvictPopcountOnly),
		lastFree: 1,
	}
}

// Name implements prefetch.Prefetcher.
func (s *Snake) Name() string { return s.name }

// Magic implements prefetch.Prefetcher.
func (s *Snake) Magic() bool { return false }

// Trained implements prefetch.Prefetcher: true once any Tail entry reached
// promotion. The paper reports training completing within 3–10 cycles; here
// it is a property of the observed stream.
func (s *Snake) Trained() bool { return s.trained }

// Storage implements prefetch.StorageHint.
func (s *Snake) Storage() (decoupled, isolated bool) {
	return !s.cfg.DisableDecoupling && !s.cfg.Isolated, s.cfg.Isolated
}

// ThrottleCycles returns the total cycles the prefetcher spent halted.
func (s *Snake) ThrottleCycles() int64 { return s.throttled }

// Config returns the active configuration.
func (s *Snake) Config() Config { return s.cfg }

// OnCycle implements prefetch.Prefetcher: the §3.3 throttling checks.
func (s *Snake) OnCycle(cycle int64, env prefetch.Env) {
	if s.ctaPart != nil {
		s.ctaPart.OnCycle(cycle, env)
	}
	if s.cfg.DisableThrottle {
		return
	}
	s.lastFree = env.FreeFraction()
	s.lastUtil = env.Utilization()
	// Condition 2 of §3.3: bandwidth saturation with hysteresis (halt at
	// 70% of the theoretical peak, resume at 50%). Condition 1 (no free
	// space) is event-driven: see OnPrefetchOutcome.
	u := s.lastUtil
	if s.bwHalted {
		if u <= s.cfg.BWResume {
			s.bwHalted = false
		}
	} else if u >= s.cfg.BWHalt {
		s.bwHalted = true
	}
	if s.halted(cycle) {
		s.throttled++
	}
}

// OnPrefetchOutcome implements prefetch.OutcomeObserver: when a prefetch
// found the unified memory without free space (the L1 bulk-freed 25% of it,
// §3.2), Snake halts prefetching for ThrottleCycles so the prefetched data
// has time to be utilized, and confines the L1 data space for the same
// interval (§3.3 condition 1).
func (s *Snake) OnPrefetchOutcome(_ uint64, oc prefetch.Outcome, cycle int64, env prefetch.Env) {
	if s.cfg.DisableThrottle || oc != prefetch.OutcomeNoSpace {
		return
	}
	if cycle >= s.haltedUntil {
		s.haltedUntil = cycle + int64(s.cfg.ThrottleCycles)
		env.ConfineL1(s.haltedUntil)
	}
}

func (s *Snake) halted(cycle int64) bool {
	return !s.cfg.DisableThrottle && (s.bwHalted || cycle < s.haltedUntil)
}

// OnAccess implements prefetch.Prefetcher: detection always runs; prefetch
// generation is suppressed while throttled.
func (s *Snake) OnAccess(ev prefetch.AccessEvent) []prefetch.Request {
	s.detect(ev)
	if s.halted(ev.Cycle) {
		return nil
	}
	s.reqBuf = s.reqBuf[:0]
	s.generate(ev)
	if s.ctaPart != nil {
		s.reqBuf = append(s.reqBuf, s.ctaPart.OnAccess(ev)...)
	}
	return s.reqBuf
}

// Reset implements prefetch.Prefetcher.
func (s *Snake) Reset() {
	s.head.reset()
	s.tail.reset()
	s.haltedUntil = 0
	s.bwHalted = false
	s.throttled = 0
	s.trained = false
	s.lastFree = 1
	s.lastUtil = 0
	if s.ctaPart != nil {
		s.ctaPart.Reset()
	}
}
