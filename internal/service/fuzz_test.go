package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"snake/internal/workloads"
)

// FuzzRequestNormalize decodes arbitrary bytes as a RunRequest (sweep
// false) or a SweepRequest (sweep true) with the handlers' decoder, then
// normalizes the request, or every cell the sweep expands to, without
// enqueueing anything. Each input must be rejected or yield valid specs:
// a registry workload, a mechanism, a valid GPU, scale and custom Snake
// config, a non-negative timeout, a 64-hex
// content address, and a wire form that normalizes back to the same address
// (what a forwarding peer relies on). Nothing may panic.
func FuzzRequestNormalize(f *testing.F) {
	svc := tinyService(1)
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	f.Fuzz(func(t *testing.T, body []byte, sweep bool) {
		if sweep {
			var req SweepRequest
			if decodeJSON(httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)), &req) != nil {
				return
			}
			if len(req.Apps) > 0 && costlyApp(req.Scale) {
				return
			}
			specs, err := svc.sweepSpecs(req)
			if err != nil {
				return
			}
			mechs := len(req.Mechs)
			if req.Snake != nil {
				mechs = 1
			}
			if want := (len(req.Benches) + len(req.Apps)) * mechs; len(specs) != want {
				t.Fatalf("sweep expanded to %d cells, want %d", len(specs), want)
			}
			for i := range specs {
				checkSpec(t, svc, &specs[i])
			}
			return
		}
		var req RunRequest
		if decodeJSON(httptest.NewRequest("POST", "/v1/runs", bytes.NewReader(body)), &req) != nil {
			return
		}
		if req.App != "" && costlyApp(req.Scale) {
			return
		}
		sp, err := svc.normalize(req)
		if err != nil {
			return
		}
		checkSpec(t, svc, &sp)
	})
}

// costlyApp reports whether an app request's scale is valid but would make
// normalize build a large workload: normalize interns the app's kernels, so
// such a scale spends the fuzzing budget on trace generation, not on
// decoding and validation. A scale beyond Scale.Validate's limits is not
// skipped: normalize must reject it before building anything.
func costlyApp(sc *workloads.Scale) bool {
	return sc != nil && sc.Validate() == nil && (sc.CTAs > 8 || sc.WarpsPerCTA > 4 || sc.Iters > 8)
}

// checkSpec asserts what every accepted request must normalize to.
func checkSpec(t *testing.T, svc *Service, sp *spec) {
	t.Helper()
	switch {
	case (sp.bench == "") == (sp.app == ""):
		t.Fatalf("spec names bench %q and app %q: want exactly one", sp.bench, sp.app)
	case sp.bench != "" && !svc.benchSet[sp.bench]:
		t.Fatalf("unknown bench %q accepted", sp.bench)
	case sp.app != "" && (!svc.appSet[sp.app] || sp.appDigest == ""):
		t.Fatalf("app %q accepted without registry entry or digest %q", sp.app, sp.appDigest)
	case sp.factory == nil:
		t.Fatal("spec without a prefetcher factory")
	case sp.timeout < 0:
		t.Fatalf("spec timeout %v", sp.timeout)
	}
	if err := sp.gpu.Validate(); err != nil {
		t.Fatalf("spec GPU invalid: %v", err)
	}
	if err := sp.scale.Validate(); err != nil {
		t.Fatalf("spec scale invalid: %v", err)
	}
	if sp.snake != nil {
		if err := sp.snake.Validate(); err != nil {
			t.Fatalf("spec snake config invalid: %v", err)
		}
	}
	key := sp.key()
	if len(key) != 64 {
		t.Fatalf("content address %q is not 64 hex characters", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			t.Fatalf("content address %q is not 64 hex characters", key)
		}
	}
	again, err := svc.normalize(sp.wireRequest())
	if err != nil {
		t.Fatalf("wire form of an accepted spec rejected: %v", err)
	}
	if got := again.key(); got != key {
		t.Fatalf("wire form normalizes to %s, want %s", got, key)
	}
}
