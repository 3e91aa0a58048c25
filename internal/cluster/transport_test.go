package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// TestFetchResult5xxMarksPeerDown: a peer answering 5xx is a peer failure,
// not a cache miss — the fetch counts as an error and the peer is latched
// down so it is not re-queried on every subsequent lookup.
func TestFetchResult5xxMarksPeerDown(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := New(Options{Self: "http://self.invalid", Peers: []string{ts.URL}, DownFor: time.Minute})
	k := keyOwnedBy(t, ts.URL, c.Nodes())

	if st, ok := c.FetchResult(context.Background(), k); ok || st != nil {
		t.Fatal("5xx fetch reported a hit")
	}
	snap := c.Snap()
	if snap.FetchErrors != 1 || snap.FetchMisses != 0 {
		t.Errorf("5xx accounting: errors=%d misses=%d, want 1 error and no miss",
			snap.FetchErrors, snap.FetchMisses)
	}
	if c.peers[ts.URL].Alive() {
		t.Error("peer still alive after 5xx; want latched down")
	}
	if _, ok := c.FetchResult(context.Background(), k); ok {
		t.Fatal("hit from a down peer")
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("peer queried %d times, want 1 (down latch must stop re-queries)", got)
	}
}

// TestFetchResult404IsMiss: a clean remote miss stays a miss — counted as
// such, peer health untouched.
func TestFetchResult404IsMiss(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer ts.Close()
	c := New(Options{Self: "http://self.invalid", Peers: []string{ts.URL}})
	k := keyOwnedBy(t, ts.URL, c.Nodes())

	if _, ok := c.FetchResult(context.Background(), k); ok {
		t.Fatal("404 fetch reported a hit")
	}
	snap := c.Snap()
	if snap.FetchMisses != 1 || snap.FetchErrors != 0 {
		t.Errorf("404 accounting: misses=%d errors=%d, want 1 miss and no error",
			snap.FetchMisses, snap.FetchErrors)
	}
	if !c.peers[ts.URL].Alive() {
		t.Error("peer marked down by a plain miss")
	}
}

// TestPeerJunkResultRejected: a 200 whose body is not exactly one stats
// object of a nonzero-cycle run is a peer error on both paths: the fetch is
// a miss counted in fetchErrors, and Execute returns an error (the service
// computes locally) counted in execErrors. A well-formed body still serves.
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

			st, ok := c.FetchResult(context.Background(), k)
			if ok != valid || (st != nil) != valid {
				t.Errorf("FetchResult(%s) = %+v, %v; want a hit only for a valid body", body, st, ok)
			}
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
			if snap.FetchErrors != wantErrs || snap.ExecErrors != wantErrs {
				t.Errorf("fetch errors %d, exec errors %d, want %d each", snap.FetchErrors, snap.ExecErrors, wantErrs)
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
