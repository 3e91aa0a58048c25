package harness

import (
	"flag"
	"fmt"

	"snake/internal/config"
	"snake/internal/workloads"
)

// ShapeFlags registers the run-shape flags the CLIs share on fs: -sms and
// -warps pick config.Scaled(sms, warps), and -ctas, -wpc and -iters set the
// workload scale, where 0 keeps DefaultScale's value. The returned function,
// called after fs.Parse, returns the machine and the canonical scale once
// they pass the shape check of RunKey.Normalize, or one error that names the
// flags at fault.
func ShapeFlags(fs *flag.FlagSet) func() (config.GPU, workloads.Scale, error) {
	sms := fs.Int("sms", 4, "simulated SMs")
	warps := fs.Int("warps", 64, "warp slots per SM")
	ctas := fs.Int("ctas", 0, "workload scale: CTAs (0: default scale)")
	wpc := fs.Int("wpc", 0, "workload scale: warps per CTA (0: default scale)")
	iters := fs.Int("iters", 0, "workload scale: loop-depth multiplier (0: default scale)")
	return func() (config.GPU, workloads.Scale, error) {
		for _, f := range []struct {
			name string
			v    int
		}{{"ctas", *ctas}, {"wpc", *wpc}, {"iters", *iters}} {
			if f.v < 0 {
				return config.GPU{}, workloads.Scale{}, fmt.Errorf("-%s %d must be ≥ 0 (0: default scale)", f.name, f.v)
			}
		}
		gpu := config.Scaled(*sms, *warps)
		sc, part, err := checkShape(gpu, workloads.Scale{CTAs: *ctas, WarpsPerCTA: *wpc, Iters: *iters})
		if err != nil {
			flags := [...]string{
				shapeGPU:   fmt.Sprintf("-sms %d -warps %d", *sms, *warps),
				shapeScale: fmt.Sprintf("-ctas %d -wpc %d -iters %d", *ctas, *wpc, *iters),
				shapeFit:   fmt.Sprintf("-wpc %d -warps %d", *wpc, *warps),
			}
			return config.GPU{}, workloads.Scale{}, fmt.Errorf("%s: %w", flags[part], err)
		}
		return gpu, sc, nil
	}
}
