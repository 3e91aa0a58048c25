// Command snaketrace inspects workload traces: it dumps per-warp load
// streams and mines chains of strides offline (the analysis behind the
// paper's Figures 8–11).
//
// Usage:
//
//	snaketrace -bench lps                 # chain-mining report
//	snaketrace -bench lps -dump -warp 0   # dump a warp's load stream
//	snaketrace -bench lps -save lps.trace # serialize (".json" for JSON)
//	snaketrace -load lps.trace            # mine a saved trace
//	snaketrace -app fanout                # application launch-graph report
//	snaketrace -app fanout -save f.app    # serialize the app (".json" for JSON)
//	snaketrace -loadapp f.app             # inspect a saved app
//	snaketrace -list
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"snake/internal/chains"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// out buffers stdout so per-line dumps don't pay a syscall per Fprintf;
// main flushes it on every exit path.
var out io.Writer = os.Stdout

func main() {
	var (
		bench   = flag.String("bench", "lps", "benchmark name")
		dump    = flag.Bool("dump", false, "dump a warp's load stream instead of mining")
		cta     = flag.Int("cta", 0, "CTA index for -dump")
		warp    = flag.Int("warp", 0, "warp index within the CTA for -dump")
		limit   = flag.Int("limit", 40, "max loads to dump")
		ctas    = flag.Int("ctas", 0, "CTA count (0: default scale)")
		iters   = flag.Int("iters", 0, "loop-depth multiplier (0: default scale)")
		save    = flag.String("save", "", "write the trace (or app) to this file (.json or binary)")
		load    = flag.String("load", "", "read the trace from this file instead of -bench")
		app     = flag.String("app", "", "application workload instead of -bench (see -list)")
		sms     = flag.Int("sms", 4, "SM count the app's masks are resolved for (-app only)")
		split   = flag.Int("split", 0, "tenant-0 SM share for partitioned apps (0: half)")
		loadapp = flag.String("loadapp", "", "read an application from this file and inspect it")
		list    = flag.Bool("list", false, "list benchmarks and apps")
	)
	flag.Parse()

	bw := bufio.NewWriter(os.Stdout)
	defer bw.Flush()
	out = bw

	if *list {
		fmt.Fprintln(out, "benchmarks:", workloads.Names())
		fmt.Fprintln(out, "apps:", workloads.AppNames())
		return
	}
	if *app != "" || *loadapp != "" {
		var a *trace.App
		var err error
		if *loadapp != "" {
			a, err = trace.LoadAppFile(*loadapp)
		} else {
			a, _, err = workloads.Shared().App(*app, workloads.Scale{CTAs: *ctas, Iters: *iters}, *sms, *split)
		}
		if err != nil {
			fatal(err)
		}
		if *save != "" {
			if err := a.SaveFile(*save); err != nil {
				fatal(err)
			}
			fmt.Fprintf(out, "wrote %s (%d launches, %d instructions)\n", *save, len(a.Launches), a.TotalInsts())
			return
		}
		reportApp(a)
		return
	}
	var k *trace.Kernel
	var err error
	if *load != "" {
		k, err = trace.LoadFile(*load)
	} else {
		k, err = workloads.Shared().Kernel(*bench, workloads.Scale{CTAs: *ctas, Iters: *iters})
	}
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		if err := k.SaveFile(*save); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "wrote %s (%d instructions)\n", *save, k.TotalInsts())
		return
	}
	if *dump {
		dumpWarp(k, *cta, *warp, *limit)
		return
	}
	report(k)
}

func dumpWarp(k *trace.Kernel, cta, warp, limit int) {
	if cta >= len(k.CTAs) || warp >= len(k.CTAs[cta].Warps) {
		fatal(fmt.Errorf("cta %d / warp %d out of range", cta, warp))
	}
	w := &k.CTAs[cta].Warps[warp]
	fmt.Fprintf(out, "%s CTA %d warp %d: %d instructions, %d loads\n",
		k.Name, cta, warp, len(w.Insts), len(w.Loads()))
	var prev trace.Inst
	havePrev := false
	n := 0
	for _, in := range w.Insts {
		if in.Op != trace.OpLoad {
			continue
		}
		if n >= limit {
			fmt.Fprintln(out, "...")
			break
		}
		delta := ""
		if havePrev {
			delta = fmt.Sprintf("  delta=%+d", int64(in.Addr)-int64(prev.Addr))
		}
		fmt.Fprintf(out, "  pc=%#06x addr=%#010x%s\n", in.PC, in.Addr, delta)
		prev, havePrev = in, true
		n++
	}
}

func report(k *trace.Kernel) {
	st := chains.Analyze(k)
	fmt.Fprintf(out, "benchmark            %s\n", k.Name)
	fmt.Fprintf(out, "total loads          %d\n", k.TotalLoads())
	fmt.Fprintf(out, "load PCs (rep warp)  %d\n", st.TotalPCs)
	fmt.Fprintf(out, "PCs in chains        %d (%.0f%%)  [paper fig 9: ~65%% avg]\n",
		st.ChainPCs, 100*st.PCFraction())
	fmt.Fprintf(out, "max chain repetition %d          [paper fig 10: ~35 avg]\n", st.MaxRepetition)
	fmt.Fprintf(out, "chain coverage       %.1f%%       [paper fig 11: ~70%% avg]\n", 100*st.ChainCoverage)
	fmt.Fprintf(out, "MTA coverage         %.1f%%       [paper fig 11: ~55%% avg]\n", 100*st.MTACoverage)
	if len(st.Links) > 0 {
		fmt.Fprintln(out, "stable chain links (most frequent first):")
		max := len(st.Links)
		if max > 10 {
			max = 10
		}
		for _, l := range st.Links[:max] {
			fmt.Fprintf(out, "  %#06x -> %#06x  stride=%+d  x%d\n", l.PC1, l.PC2, l.Delta, l.Count)
		}
	}
}

// reportApp prints an application's launch graph plus a per-distinct-kernel
// chain-mining summary (each kernel analyzed once however often it launches).
func reportApp(a *trace.App) {
	digest, err := a.Digest()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "application          %s\n", a.Name)
	fmt.Fprintf(out, "launches             %d\n", len(a.Launches))
	fmt.Fprintf(out, "tenants              %d\n", a.Tenants())
	fmt.Fprintf(out, "total instructions   %d\n", a.TotalInsts())
	fmt.Fprintf(out, "digest               %s\n", digest[:16])
	fmt.Fprintln(out, "launch graph:")
	for i, l := range a.Launches {
		mask := "all SMs"
		if l.SMMask != 0 {
			mask = fmt.Sprintf("mask %#x", l.SMMask)
		}
		deps := "no deps"
		if len(l.DependsOn) > 0 {
			deps = fmt.Sprintf("after %v", l.DependsOn)
		}
		fmt.Fprintf(out, "  [%d] %-10s tenant %d  %-12s %s\n", i, l.Kernel.Name, l.Tenant, mask, deps)
	}
	fmt.Fprintln(out, "per-kernel chains (distinct kernels):")
	seen := make(map[*trace.Kernel]bool)
	for _, l := range a.Launches {
		if seen[l.Kernel] {
			continue
		}
		seen[l.Kernel] = true
		st := chains.Analyze(l.Kernel)
		fmt.Fprintf(out, "  %-10s loads=%-8d chain-pc=%.0f%%  chain-cov=%.1f%%\n",
			l.Kernel.Name, l.Kernel.TotalLoads(), 100*st.PCFraction(), 100*st.ChainCoverage)
	}
}

func fatal(err error) {
	if bw, ok := out.(*bufio.Writer); ok {
		bw.Flush()
	}
	fmt.Fprintln(os.Stderr, "snaketrace:", err)
	os.Exit(1)
}
