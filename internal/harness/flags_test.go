package harness

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"snake/internal/config"
	"snake/internal/workloads"
)

// TestShapeFlags: the shared shape flags default to the experiments' machine
// and scale, and a shape no run could simulate is one error that names the
// flag, before anything runs. A negative scale flag is an error too, not
// a silent default.
func TestShapeFlags(t *testing.T) {
	parse := func(args ...string) (config.GPU, workloads.Scale, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		shape := ShapeFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return shape()
	}
	gpu, sc, err := parse()
	if err != nil || !reflect.DeepEqual(gpu, config.Scaled(4, 64)) || sc != workloads.DefaultScale() {
		t.Errorf("defaults: %+v %+v %v, want Scaled(4, 64), DefaultScale()", gpu, sc, err)
	}
	gpu, sc, err = parse("-sms", "8", "-warps", "32", "-ctas", "6", "-wpc", "4", "-iters", "3")
	if err != nil || !reflect.DeepEqual(gpu, config.Scaled(8, 32)) || sc != (workloads.Scale{CTAs: 6, WarpsPerCTA: 4, Iters: 3}) {
		t.Errorf("set: %+v %+v %v", gpu, sc, err)
	}
	if _, sc, _ := parse("-ctas", "6"); sc != (workloads.Scale{CTAs: 6, WarpsPerCTA: 8, Iters: 12}) {
		t.Errorf("-ctas 6: scale %+v, want the default scale's other dimensions", sc)
	}
	for _, tc := range []struct {
		args []string
		want string // the flag and the field the error must name
	}{
		{[]string{"-sms", "0"}, "-sms 0 -warps 64: config: NumSM 0"},
		{[]string{"-warps", "0"}, "-sms 4 -warps 0: config: MaxWarpsPerSM 0"},
		{[]string{"-sms", "8", "-warps", "0"}, "-sms 8 -warps 0: config: MaxWarpsPerSM 0"},
		{[]string{"-warps", "300"}, "-sms 4 -warps 300: config: MaxWarpsPerSM 300"},
		{[]string{"-ctas", "-1"}, "-ctas -1 must be ≥ 0"},
		{[]string{"-wpc", "-1"}, "-wpc -1 must be ≥ 0"},
		{[]string{"-iters", "-1"}, "-iters -1 must be ≥ 0"},
		{[]string{"-ctas", "70000"}, "-ctas 70000 -wpc 0 -iters 0: scale: CTAs 70000"},
		{[]string{"-wpc", "65", "-warps", "64"}, "-wpc 65 -warps 64: scale: a CTA of 65 warps"},
		{[]string{"-warps", "4"}, "-wpc 0 -warps 4: scale: a CTA of 8 warps"},
	} {
		_, _, err := parse(tc.args...)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: error %v, want one line starting %q", tc.args, err, tc.want)
		}
	}
}
