package repro_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestResultsBoundToEngine binds the committed results_all.txt to the engine
// that produced it. Its first line records the sha256 of perfbench/refs.json,
// the Result.Stats digests of the Fig. 18 grid. A change to Stats re-records
// refs.json, and this test then fails until results_all.txt is regenerated in
// the same change.
func TestResultsBoundToEngine(t *testing.T) {
	refs, err := os.ReadFile("perfbench/refs.json")
	if err != nil {
		t.Fatal(err)
	}
	results, err := os.ReadFile("results_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(results), "\n")
	if want := fmt.Sprintf("# perfbench/refs.json sha256 %x", sha256.Sum256(refs)); header != want {
		t.Errorf("results_all.txt header %q, want %q: regenerate it with\n"+
			`  { echo "# perfbench/refs.json sha256 $(sha256sum perfbench/refs.json | cut -d' ' -f1)"; go run ./cmd/snakebench -all; } > results_all.txt`,
			header, want)
	}
}
