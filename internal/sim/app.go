package sim

import (
	"fmt"

	"snake/internal/stats"
	"snake/internal/trace"
)

// AppResult carries the outcome of an application (multi-launch) run: the
// usual aggregate Result plus per-launch records in App order and per-tenant
// rollups. Like Result.Stats, every field is bit-identical across
// SlackWindow settings.
type AppResult struct {
	Result
	Launches stats.Launches
	Tenants  []stats.Tenant
}

// RunApp simulates the application under the given options: launches
// dispatch when their dependencies retire and their SM mask is free, tenants
// on disjoint masks run concurrently through the shared memory system, and
// Options.ChainPersistence decides whether prefetcher (Snake chain-table)
// state carries across launch boundaries. Each call constructs a fresh
// engine; repeat callers should hold an Engine.
func RunApp(a *trace.App, opt Options) (*AppResult, error) {
	var en Engine
	return en.RunApp(a, opt)
}

// validateRunApp performs RunApp's pre-flight checks.
func validateRunApp(a *trace.App, opt Options) error {
	if opt.Context != nil {
		if err := opt.Context.Err(); err != nil {
			return fmt.Errorf("sim: aborted before start: %w", err)
		}
	}
	if err := a.Validate(); err != nil {
		return err
	}
	if err := opt.Config.Validate(); err != nil {
		return err
	}
	for i, l := range a.Launches {
		for _, cta := range l.Kernel.CTAs {
			if len(cta.Warps) > opt.Config.MaxWarpsPerSM {
				return fmt.Errorf("sim: app %q launch %d CTA %d has %d warps, more than %d warp slots per SM",
					a.Name, i, cta.ID, len(cta.Warps), opt.Config.MaxWarpsPerSM)
			}
		}
		if l.SMMask != 0 {
			if opt.Config.NumSM > 64 {
				return fmt.Errorf("sim: app %q launch %d has an SM mask but NumSM=%d > 64",
					a.Name, i, opt.Config.NumSM)
			}
			if l.SMMask>>uint(opt.Config.NumSM) != 0 {
				return fmt.Errorf("sim: app %q launch %d SM mask %#x references SMs >= NumSM=%d",
					a.Name, i, l.SMMask, opt.Config.NumSM)
			}
		}
	}
	return nil
}

// appResult assembles the per-launch records (App order — the canonical
// merge discipline, like shards and partitions) on top of result().
func (e *engine) appResult() *AppResult {
	ar := &AppResult{Result: *e.result()}
	ar.Launches = make(stats.Launches, len(e.launches))
	for i := range e.launches {
		ln := &e.launches[i]
		st := ln.acc
		st.Cycles = ln.retire - ln.start
		ar.Launches[i] = stats.Launch{
			Index:       i,
			Kernel:      ln.kernel.Name,
			Tenant:      ln.tenant,
			StartCycle:  ln.start,
			RetireCycle: ln.retire,
			Stats:       st,
		}
	}
	ar.Tenants = ar.Launches.Tenants()
	return ar
}
