package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/workloads"
)

// runKeyVersion salts the hash so a change to the key schema (or to the
// meaning of any field) invalidates previously cached results.
const runKeyVersion = "snake-runkey-v2"

// RunKey identifies one simulation for memoization and result caching: the
// same key always denotes the same deterministic simulation, so a result
// computed once can be reused by any holder of the key. It is shared between
// the in-process Runner and the snaked service's content-addressed cache.
type RunKey struct {
	// Bench is the benchmark name (or, inside this package, a synthetic
	// kernel identifier for kernels outside the registry, e.g. "tiled0.75").
	Bench string `json:"bench"`
	// Mech is the registry mechanism name, or CustomSnake when Snake is set.
	Mech string `json:"mech"`
	// Snake is the custom Snake configuration of a variant run; nil for
	// registry mechanisms.
	Snake *core.Config `json:"snake,omitempty"`
	// GPU is the simulated hardware configuration.
	GPU config.GPU `json:"gpu"`
	// Scale is the workload scale.
	Scale workloads.Scale `json:"scale"`
}

// CustomSnake is the mechanism of a run under a custom Snake configuration
// (RunKey.Snake); the configuration itself tells such runs apart.
const CustomSnake = "snake:custom"

// Normalize returns the key as its canonical form, or an error naming why no
// run could simulate it: a benchmark outside the registry; a mechanism
// outside the registry, or a Snake config under CustomSnake that fails
// core.Config.Validate; an invalid GPU or scale; or a CTA wider than an SM.
// It takes every field literally, so it fills in no default. Its one rewrite
// is a Snake bandwidth threshold of −0 to 0: the two compare equal, and so
// run alike, but marshal apart. A canonical key normalizes to itself.
func (k RunKey) Normalize() (RunKey, error) {
	if !workloads.Has(k.Bench) {
		return RunKey{}, fmt.Errorf("unknown benchmark %q (known: %v)", k.Bench, workloads.Names())
	}
	if k.Snake != nil {
		if k.Mech != CustomSnake {
			return RunKey{}, fmt.Errorf("a custom snake config runs as mech %q, not %q", CustomSnake, k.Mech)
		}
		if err := k.Snake.Validate(); err != nil {
			return RunKey{}, err
		}
		snake := *k.Snake
		for _, bw := range []*float64{&snake.BWHalt, &snake.BWResume} {
			if *bw == 0 {
				*bw = 0 // −0 to 0
			}
		}
		k.Snake = &snake
	} else if _, err := Mechanism(k.Mech); err != nil {
		return RunKey{}, err
	}
	if _, err := checkShape(k.GPU, k.Scale); err != nil {
		return RunKey{}, err
	}
	return k, nil
}

// The parts of a run's shape checkShape names at fault.
const (
	shapeGPU = iota
	shapeScale
	shapeFit
)

// checkShape checks a machine and a workload scale together: each valid, and
// a CTA of the scale no wider than an SM. It returns the part at fault and
// why.
func checkShape(gpu config.GPU, sc workloads.Scale) (int, error) {
	if err := gpu.Validate(); err != nil {
		return shapeGPU, err
	}
	if err := sc.Validate(); err != nil {
		return shapeScale, err
	}
	return shapeFit, sc.FitsSM(gpu.MaxWarpsPerSM)
}

// Hash returns the content address of the key: a hex SHA-256 over the
// canonical JSON encoding (encoding/json emits struct fields in declaration
// order, so the encoding is deterministic).
func (k RunKey) Hash() string {
	b, err := json.Marshal(k)
	if err != nil {
		// Only unsupported types can fail Marshal; RunKey has none.
		panic(fmt.Sprintf("harness: RunKey marshal: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(runKeyVersion))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
