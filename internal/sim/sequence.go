package sim

import (
	"fmt"

	"snake/internal/trace"
)

// SequenceOptions configures a multi-kernel run (the paper's §1 extension:
// "it can be extended to support multiple applications where the chains of
// strides are detected within each application").
type SequenceOptions struct {
	Options
	// FlushL1 invalidates the L1s between kernels (the common driver
	// behaviour). Default false: caches stay warm.
	FlushL1 bool
	// ResetPrefetchers clears prefetcher state between kernels, scoping
	// chain detection to one application at a time. Default false: tables
	// persist, so a re-launched kernel starts pre-trained.
	ResetPrefetchers bool
}

// KernelSpan records one kernel's portion of a sequence run.
type KernelSpan struct {
	Name       string
	StartCycle int64
	EndCycle   int64
	Insts      int64
}

// Cycles returns the span's duration.
func (s KernelSpan) Cycles() int64 { return s.EndCycle - s.StartCycle }

// SequenceResult aggregates a multi-kernel run.
type SequenceResult struct {
	Result
	Spans []KernelSpan
}

// RunSequence executes the kernels back to back on one GPU instance: warp
// slots drain between kernels, the clock keeps running, and (by default)
// cache and prefetcher state carry over.
func RunSequence(kernels []*trace.Kernel, opt SequenceOptions) (*SequenceResult, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("sim: empty kernel sequence")
	}
	base := opt.Options
	if base.MaxCycles <= 0 {
		base.MaxCycles = 20_000_000 * int64(len(kernels))
	}
	base = base.withDefaults()
	if err := base.Config.Validate(); err != nil {
		return nil, err
	}
	for _, k := range kernels {
		if err := k.Validate(); err != nil {
			return nil, err
		}
		for _, cta := range k.CTAs {
			if len(cta.Warps) > base.Config.MaxWarpsPerSM {
				return nil, fmt.Errorf("sim: kernel %q CTA %d wider than an SM", k.Name, cta.ID)
			}
		}
	}

	e := newEngine(kernels[0], base)
	out := &SequenceResult{}
	var prevInsts int64
	for i, k := range kernels {
		if i > 0 {
			e.prepareKernel(k, opt.FlushL1, opt.ResetPrefetchers)
		}
		start := e.cycle
		if err := e.run(); err != nil {
			return nil, fmt.Errorf("sim: kernel %d (%s): %w", i, k.Name, err)
		}
		var insts int64
		for _, s := range e.shStats.Slice() {
			insts += s.Insts
		}
		out.Spans = append(out.Spans, KernelSpan{
			Name:       k.Name,
			StartCycle: start,
			EndCycle:   e.cycle,
			Insts:      insts - prevInsts,
		})
		prevInsts = insts
	}
	out.Result = *e.result()
	return out, nil
}

// prepareKernel rewires the engine for the next kernel in a sequence: flush
// policies apply first, then the kernel is loaded as a fresh one-launch App
// on the still-running clock (the initial activation wave in loadApp never
// flushes — RunSequence's ResetPrefetchers is the only policy here, exactly
// as before the launch layer).
func (e *engine) prepareKernel(k *trace.Kernel, flushL1, resetPf bool) {
	for _, sh := range e.shards {
		s := sh.sm
		if flushL1 {
			s.l1.Reset()
		}
		if resetPf && s.pf != nil {
			s.pf.Reset()
			s.l1.SetTrained(s.pf.Trained())
		}
	}
	e.loadApp(e.singleApp(k))
	e.fillSMs()
}
