package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// base is two rounds of canned `go test -bench` output.
const base = `goos: linux
BenchmarkT/lps-4         	100	  5000000 ns/op	  335478 cycles/s	 1000000 B/op	1700 allocs/op
BenchmarkT/lps-reuse-4   	100	  3000000 ns/op	    2000 B/op	  10 allocs/op
BenchmarkT/lps-4         	100	  6000000 ns/op	  335478 cycles/s	 1000000 B/op	1700 allocs/op
PASS
`

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name, head string
		want       []string
	}{
		{"1.3x ns/op on a serial row fails",
			"BenchmarkT/lps-4 100 6500000 ns/op 1000000 B/op 1700 allocs/op", []string{"BenchmarkT/lps-4 ns/op"}},
		{"1.22x ns/op passes",
			"BenchmarkT/lps-4 100 6100000 ns/op", nil},
		{"allocs/op and B/op below their floors never flag",
			"BenchmarkT/lps-reuse-4 100 3000000 ns/op 4000 B/op 15 allocs/op", nil},
		{"allocs/op and B/op above their floors flag past 1.2x",
			"BenchmarkT/lps-4 100 5000000 ns/op 1300000 B/op 2100 allocs/op", []string{"BenchmarkT/lps-4 allocs/op", "BenchmarkT/lps-4 B/op"}},
		{"a case present only on head is skipped",
			"BenchmarkT/nw-4 100 99000000 ns/op 99999 allocs/op", nil},
		// Fastest rounds 5.0 vs 6.1 ms pass; the head's first round (7.0 ms,
		// 1.4x) would not.
		{"the fastest round is compared",
			"BenchmarkT/lps-4 100 7000000 ns/op\nBenchmarkT/lps-4 100 6100000 ns/op", nil},
	} {
		b, err := parse(strings.NewReader(base))
		if err != nil {
			t.Fatal(err)
		}
		h, err := parse(strings.NewReader(tc.head))
		if err != nil {
			t.Fatal(err)
		}
		if got := compare(io.Discard, b, h); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: regressions %q, want %q", tc.name, got, tc.want)
		}
	}
}
