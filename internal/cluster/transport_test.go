package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// keyOwnedBy finds a well-formed (hex, 64-char) cache key the given node
// owns under the rendezvous hash.
func keyOwnedBy(t *testing.T, owner string, nodes []string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("%064x", i)
		if Owner(k, nodes) == owner {
			return k
		}
	}
	t.Fatal("no key owned by node; rendezvous hash degenerate")
	return ""
}

// TestExecuteLatchesPeerDown: an owner answering 502, 503 or 504 is a
// broken peer, so Execute latches it down and the next call does not reach
// it. A 500 (the forwarded job's own failure), a 400 or a 429 leaves the
// peer in rotation.
func TestExecuteLatchesPeerDown(t *testing.T) {
	for _, tc := range []struct {
		code  int
		latch bool
	}{
		{http.StatusBadGateway, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusGatewayTimeout, true},
		{http.StatusInternalServerError, false},
		{http.StatusBadRequest, false},
		{http.StatusTooManyRequests, false},
	} {
		t.Run(strconv.Itoa(tc.code), func(t *testing.T) {
			var calls int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				atomic.AddInt32(&calls, 1)
				http.Error(w, "boom", tc.code)
			}))
			defer ts.Close()
			c := New(Options{Self: "http://self.invalid", Peers: []string{ts.URL}, DownFor: time.Minute})
			k := keyOwnedBy(t, ts.URL, c.Nodes())

			for i := 0; i < 2; i++ {
				if st, _, err := c.Execute(context.Background(), k, []byte(`{}`)); err == nil || st != nil {
					t.Fatalf("call %d: HTTP %d answered %+v, %v; want an error", i, tc.code, st, err)
				}
			}
			if alive := c.peers[ts.URL].Alive(); alive == tc.latch {
				t.Errorf("after HTTP %d the peer is alive=%v, want %v", tc.code, alive, !tc.latch)
			}
			want := int32(2)
			if tc.latch {
				want = 1
			}
			if got := atomic.LoadInt32(&calls); got != want {
				t.Errorf("peer reached %d times, want %d", got, want)
			}
		})
	}
}

// TestPeerJunkResultRejected: a 200 whose body is not exactly one stats
// object of a nonzero-cycle run is a peer error: Execute returns an error
// (the service computes locally) counted in execErrors. A well-formed body
// still serves.
func TestPeerJunkResultRejected(t *testing.T) {
	for name, body := range map[string]string{
		"valid":    `{"cycles":5,"Insts":7}`,
		"null":     `null`,
		"empty":    `{}`,
		"trailing": `{"cycles":5}garbage`,
		"unknown":  `{"cycles":5,"bogus":1}`,
		"array":    `[{"cycles":5}]`,
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, body)
			}))
			defer ts.Close()
			c := New(Options{Self: "http://self.invalid", Peers: []string{ts.URL}})
			k := keyOwnedBy(t, ts.URL, c.Nodes())
			valid := name == "valid"

			st, _, err := c.Execute(context.Background(), k, []byte(`{}`))
			if (err == nil) != valid || (st != nil) != valid {
				t.Errorf("Execute(%s) = %+v, %v; want a result only for a valid body", body, st, err)
			}
			if valid && (st.Cycles != 5 || st.Insts != 7) {
				t.Errorf("valid body decoded to %+v", st)
			}
			snap := c.Snap()
			wantErrs := int64(1)
			if valid {
				wantErrs = 0
			}
			if snap.ExecErrors != wantErrs {
				t.Errorf("exec errors %d, want %d", snap.ExecErrors, wantErrs)
			}
		})
	}
}

// FuzzDecodeResult: a peer's result body is rejected or round-trips, and
// decoding never panics. An accepted body re-marshals to JSON that decodes
// to the same stats. The seed corpus in testdata/ holds junk bodies and
// well-formed minimal and full results.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeResult(bytes.NewReader(body))
		if err != nil {
			return
		}
		if st.Cycles <= 0 {
			t.Fatalf("accepted a result of %d cycles", st.Cycles)
		}
		again, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeResult(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded result %s rejected: %v", again, err)
		}
		if *back != *st {
			t.Fatalf("round trip changed the result:\ngot  %+v\nwant %+v", back, st)
		}
	})
}
