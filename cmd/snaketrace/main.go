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
		bench = flag.String("bench", "lps", "benchmark name")
		dump  = flag.Bool("dump", false, "dump a warp's load stream instead of mining")
		cta   = flag.Int("cta", 0, "CTA index for -dump")
		warp  = flag.Int("warp", 0, "warp index within the CTA for -dump")
		limit = flag.Int("limit", 40, "max loads to dump")
		ctas  = flag.Int("ctas", workloads.DefaultScale().CTAs, "CTA count")
		iters = flag.Int("iters", workloads.DefaultScale().Iters, "loop-depth multiplier")
		save  = flag.String("save", "", "write the trace to this file (.json or binary)")
		load  = flag.String("load", "", "read the trace from this file instead of -bench")
		list  = flag.Bool("list", false, "list benchmarks")
	)
	flag.Parse()

	bw := bufio.NewWriter(os.Stdout)
	defer bw.Flush()
	out = bw

	if *list {
		fmt.Fprintln(out, "benchmarks:", workloads.Names())
		return
	}
	var k *trace.Kernel
	var err error
	if *load != "" {
		k, err = trace.LoadFile(*load)
	} else {
		sc := workloads.DefaultScale()
		sc.CTAs, sc.Iters = *ctas, *iters
		k, err = workloads.Shared().Kernel(*bench, sc)
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
	loads := w.Loads()
	fmt.Fprintf(out, "%s CTA %d warp %d: %d instructions, %d loads\n",
		k.Name, cta, warp, w.Len(), len(loads))
	var prev trace.Inst
	havePrev := false
	n := 0
	for _, in := range loads {
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

func fatal(err error) {
	if bw, ok := out.(*bufio.Writer); ok {
		bw.Flush()
	}
	fmt.Fprintln(os.Stderr, "snaketrace:", err)
	os.Exit(1)
}
