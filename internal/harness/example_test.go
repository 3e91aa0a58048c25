package harness_test

import (
	"context"
	"fmt"

	"snake/internal/harness"
	"snake/internal/stats"
)

// ExampleRunner_Simulate runs the LPS stencil of the paper's Figure 7 with
// and without Snake on the standard experiment machine (4 SMs x 64 warps at
// the default workload scale) and prints the headline numbers.
func ExampleRunner_Simulate() {
	r := harness.NewRunner()
	var st [2]*stats.Sim
	for i, mech := range []string{"baseline", "snake"} {
		key, err := r.Key("lps", mech).Normalize()
		if err == nil {
			st[i], err = r.Simulate(context.Background(), key)
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	b, s := st[0], st[1]
	fmt.Printf("lps: %d instructions, %d loads\n", b.Insts, b.Loads)
	fmt.Printf("%-8s %10s %10s\n", "", "baseline", "snake")
	fmt.Printf("%-8s %10d %10d\n", "cycles", b.Cycles, s.Cycles)
	fmt.Printf("%-8s %10.3f %10.3f\n", "IPC", b.IPC(), s.IPC())
	fmt.Printf("speedup: %.2fx\n", s.IPC()/b.IPC())
	// Output:
	// lps: 28032 instructions, 9216 loads
	//            baseline      snake
	// cycles         8498       5738
	// IPC           3.299      4.885
	// speedup: 1.48x
}
