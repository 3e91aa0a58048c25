package workloads

import "snake/internal/trace"

// Matrix-structured benchmarks: Backprop, LUD.

// Backprop reproduces the Rodinia back-propagation layer kernel: a forward
// phase reading the input activations and a weight row per step, a CTA
// barrier, then a weight-adjustment phase reading weights and deltas. The
// input/weight/delta arrays sit at fixed offsets, giving stable inter-thread
// chains; the loop over hidden units gives fixed per-PC strides too.
func Backprop(sc Scale) *trace.Kernel {
	sc = sc.WithDefaults()
	const (
		inBase     = 0xB000_0000
		weightBase = 0xB400_0000
		deltaBase  = 0xB800_0000
		rowBytes   = 4 * kb
		pcBase     = 0xA000
	)
	hidden := sc.Iters
	k := &trace.Kernel{Name: "backprop"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: inBase + uint64(c)*uint64(sc.WarpsPerCTA)*rowBytes}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			in := cta.BaseAddr + uint64(w)*rowBytes
			wrow := weightBase + (in-inBase)*4
			// Forward (bpnn_layerforward): the input activation is read once;
			// the inner loop walks the weight matrix column at a fixed
			// row stride — a single-PC loop whose stride every mechanism can
			// train, matching the Rodinia kernel's global-memory behaviour.
			b.Load(pcBase+0, in, 4)
			for h := 0; h < hidden; h++ {
				b.Load(pcBase+8, wrow+uint64(h)*rowBytes, 4) // weight[h][tid]
				b.Compute(pcBase+16, 6)
			}
			b.Barrier(pcBase + 24)
			// Backward (bpnn_adjust_weights): delta read once per row, then
			// the weight column walked again and written back.
			b.Load(pcBase+32, deltaBase+(in-inBase), 4)
			for h := 0; h < hidden; h++ {
				b.Load(pcBase+40, wrow+uint64(h)*rowBytes, 4)
				b.Compute(pcBase+48, 5)
				b.Store(pcBase+56, wrow+uint64(h)*rowBytes, 4)
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+64)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}

// LUD reproduces the Rodinia LU-decomposition perimeter kernel: the active
// submatrix shrinks every iteration, so the per-PC stride changes from
// iteration to iteration — intra-warp and inter-warp training never
// converge. Within one iteration, however, the diagonal, row and column
// loads sit at fixed offsets from each other: a chain of strides that only
// Snake's inter-thread mechanism captures. This is the paper's
// "variable strides" case in its purest form.
func LUD(sc Scale) *trace.Kernel {
	sc = sc.WithDefaults()
	const (
		matBase = 0xC000_0000
		n       = 512 // matrix dimension in lines
		pcBase  = 0xB000
	)
	iters := sc.Iters
	rowBytes := uint64(n) * lineBytes
	k := &trace.Kernel{Name: "lud"}
	for c := 0; c < sc.CTAs; c++ {
		cta := trace.CTA{ID: c, BaseAddr: matBase + uint64(c)*rowBytes*4}
		for w := 0; w < sc.WarpsPerCTA; w++ {
			b := trace.NewBuilder()
			diag := cta.BaseAddr + uint64(w)*2*lineBytes
			for it := 0; it < iters; it++ {
				// Fixed within-iteration chain: diag → row element → column
				// element at constant deltas.
				b.Load(pcBase+0, diag, 4)             // m[diag]
				b.Load(pcBase+8, diag+4*lineBytes, 4) // m[diag + k]
				b.Load(pcBase+16, diag+rowBytes, 4)   // m[diag + N]
				b.Load(pcBase+24, diag+rowBytes+4*lineBytes, 4)
				b.Compute(pcBase+32, 8)
				b.Store(pcBase+40, diag+rowBytes, 4)
				// The active submatrix shrinks: the step grows each
				// iteration, so no per-PC stride is ever fixed.
				diag += rowBytes + uint64(it+1)*2*lineBytes
			}
			cta.Warps = append(cta.Warps, withID(w, b.Exit(pcBase+48)))
		}
		k.CTAs = append(k.CTAs, cta)
	}
	return k
}
