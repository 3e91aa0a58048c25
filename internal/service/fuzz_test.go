package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"snake/internal/harness"
	"snake/internal/workloads"
)

// FuzzRequestNormalize decodes arbitrary bytes as a RunRequest (sweep
// false) or a SweepRequest (sweep true) with the handlers' decoder, then
// normalizes the request, or every cell the sweep expands to, without
// enqueueing anything. Each input must be rejected or yield valid specs:
// a registry workload, one mechanism (never a mech beside a snake config), a valid GPU whose slack audit is
// computable, a valid scale and custom Snake config, a scale whose CTA fits
// the GPU's warp slots, the timeout the request asked for, a canonical key
// (normalizing it again changes nothing) whose JSON decodes back to an equal
// key, a 64-hex content address, and a wire form that normalizes back to the
// same address (what a forwarding peer relies on). Nothing may panic.
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
			if svc.decodeRequest(httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)), &req) != nil {
				return
			}
			specs, err := svc.sweepSpecs(req)
			if err != nil {
				return
			}
			mechs := len(req.Mechs)
			if req.Snake != nil {
				if mechs > 0 {
					t.Fatalf("mechs %q beside a snake config accepted", req.Mechs)
				}
				mechs = 1
			}
			if want := len(req.Benches) * mechs; len(specs) != want {
				t.Fatalf("sweep expanded to %d cells, want %d", len(specs), want)
			}
			for i := range specs {
				checkSpec(t, svc, &specs[i], req.TimeoutMS)
			}
			return
		}
		var req RunRequest
		if svc.decodeRequest(httptest.NewRequest("POST", "/v1/runs", bytes.NewReader(body)), &req) != nil {
			return
		}
		sp, err := svc.normalize(req)
		if err != nil {
			return
		}
		if req.Snake != nil && req.Mech != "" {
			t.Fatalf("mech %q beside a snake config accepted", req.Mech)
		}
		checkSpec(t, svc, &sp, req.TimeoutMS)
	})
}

// checkSpec asserts what every accepted request must normalize to.
func checkSpec(t *testing.T, svc *Service, sp *spec, timeoutMS int64) {
	t.Helper()
	k := &sp.key
	switch {
	case !workloads.Has(k.Bench):
		t.Fatalf("unknown bench %q accepted", k.Bench)
	case k.Snake != nil && k.Mech != harness.CustomSnake:
		t.Fatalf("custom snake config under mech %q", k.Mech)
	case sp.timeout < 0 || sp.timeout/time.Millisecond != time.Duration(timeoutMS):
		t.Fatalf("timeout_ms %d normalized to spec timeout %v", timeoutMS, sp.timeout)
	}
	if k.Snake == nil {
		if _, err := harness.Mechanism(k.Mech); err != nil {
			t.Fatalf("spec mechanism: %v", err)
		}
	} else if err := k.Snake.Validate(); err != nil {
		t.Fatalf("spec snake config invalid: %v", err)
	}
	if err := k.GPU.Validate(); err != nil {
		t.Fatalf("spec GPU invalid: %v", err)
	}
	k.GPU.SlackAudit()
	if err := k.Scale.Validate(); err != nil {
		t.Fatalf("spec scale invalid: %v", err)
	}
	if err := k.Scale.FitsSM(k.GPU.MaxWarpsPerSM); err != nil {
		t.Fatalf("spec scale does not fit its GPU: %v", err)
	}
	key := k.Hash()
	canon, err := k.Normalize()
	if err != nil {
		t.Fatalf("accepted key does not normalize: %v", err)
	}
	if !reflect.DeepEqual(canon, *k) || canon.Hash() != key {
		t.Fatalf("accepted key %+v is not canonical: it normalizes to %+v", *k, canon)
	}
	b, err := json.Marshal(k)
	if err != nil {
		t.Fatalf("accepted key does not encode: %v", err)
	}
	var back harness.RunKey
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, *k) {
		t.Fatalf("accepted key's JSON decodes to %+v, %v; want %+v\n%s", back, err, *k, b)
	}
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
	if got := again.key.Hash(); got != key {
		t.Fatalf("wire form normalizes to %s, want %s", got, key)
	}
}
