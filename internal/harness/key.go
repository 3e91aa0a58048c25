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
	// Bench is the benchmark name (or a synthetic kernel identifier for
	// kernels outside the registry, e.g. "tiled0.75").
	Bench string `json:"bench"`
	// Mech is the mechanism name; for custom factories it must uniquely
	// identify the factory's configuration.
	Mech string `json:"mech"`
	// Snake is the custom Snake configuration for variant runs; nil for
	// registry mechanisms.
	Snake *core.Config `json:"snake,omitempty"`
	// GPU is the simulated hardware configuration.
	GPU config.GPU `json:"gpu"`
	// Scale is the workload scale.
	Scale workloads.Scale `json:"scale"`
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
