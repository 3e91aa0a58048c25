package harness

import (
	"flag"
	"fmt"

	"snake/internal/config"
	"snake/internal/workloads"
)

// ShapeFlags registers the run-shape flags the CLIs share on fs: -sms and
// -warps pick config.Scaled(sms, warps), and -ctas, -wpc and -iters set the
// workload scale, each defaulting to DefaultScale's value. The returned
// function, called after fs.Parse, returns the machine and the scale once
// they pass the shape check of RunKey.Normalize, or one error that names the
// flags at fault.
func ShapeFlags(fs *flag.FlagSet) func() (config.GPU, workloads.Scale, error) {
	def := workloads.DefaultScale()
	sms := fs.Int("sms", 4, "simulated SMs")
	warps := fs.Int("warps", 64, "warp slots per SM")
	ctas := fs.Int("ctas", def.CTAs, "workload scale: CTAs")
	wpc := fs.Int("wpc", def.WarpsPerCTA, "workload scale: warps per CTA")
	iters := fs.Int("iters", def.Iters, "workload scale: loop-depth multiplier")
	return func() (config.GPU, workloads.Scale, error) {
		gpu := config.Scaled(*sms, *warps)
		sc := workloads.Scale{CTAs: *ctas, WarpsPerCTA: *wpc, Iters: *iters}
		if part, err := checkShape(gpu, sc); err != nil {
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
