// Command snaked serves the simulation service over HTTP/JSON: submit
// simulation and sweep jobs, poll or stream their results, and scrape
// metrics. Jobs run on a bounded worker pool behind a priority queue, and
// completed results are memoized in a tiered content-addressed cache
// (bounded memory LRU, then disk spillover) so repeated sweeps over the
// paper's benchmark grid return instantly.
//
// Usage:
//
//	snaked -addr :8080 -workers 8
//	curl -s localhost:8080/v1/benchmarks
//	curl -s -XPOST localhost:8080/v1/runs -d '{"bench":"lps","mech":"snake"}'
//
// Several snaked processes form a cluster with static membership:
//
//	snaked -addr :8080 -self http://hostA:8080 -peers http://hostB:8080
//	snaked -addr :8080 -self http://hostB:8080 -peers http://hostA:8080
//
// Each simulation key has one owner (rendezvous hashing over the member
// set); non-owners forward misses to the owner, which answers from its
// cache or simulates, so a sweep fanned across nodes simulates every cell
// exactly once. A dead peer degrades to local compute — never an error.
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight jobs
// (bounded by -draintimeout), aborting still-running simulations through
// their contexts if the deadline passes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"snake/internal/harness"
	"snake/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "concurrent job limit (default: GOMAXPROCS; CPU use is bounded by the shared budget, not this)")
		shape   = harness.ShapeFlags(flag.CommandLine) // the default GPU and scale
		drain   = flag.Duration("draintimeout", 2*time.Minute, "graceful shutdown drain budget")
		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default; profiles reveal operational detail, enable only on trusted networks)")

		queueMax   = flag.Int("queue-max", 0, "max queued jobs before submissions get 429 (0: unbounded)")
		cacheMax   = flag.Int64("cache-max-bytes", 0, "in-memory result cache budget in bytes; evicted entries stay readable from -cache-dir (0: unbounded)")
		cacheDir   = flag.String("cache-dir", "", "disk tier: results are written through here and survive restarts (empty: disabled, evictions drop)")
		self       = flag.String("self", "", "this node's advertised base URL, required with -peers (e.g. http://hostA:8080)")
		peers      = flag.String("peers", "", "comma-separated peer base URLs; enables clustering")
		peerFlight = flag.Int("peer-inflight", 4, "max concurrently forwarded jobs per peer")
		peerExecTO = flag.Duration("peer-exec-timeout", 2*time.Minute, "bound on one forwarded execution; expiry degrades to local compute (<0: unbounded)")
	)
	flag.Parse()

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	if len(peerList) > 0 && *self == "" {
		fatal(errors.New("-peers requires -self (this node's advertised URL, as the peers spell it)"))
	}

	// A default the service could not run would fail every job that does
	// not override it, so refuse to start instead.
	gpu, scale, err := shape()
	if err != nil {
		fatal(err)
	}

	svc := service.New(service.Options{
		Workers: *workers, GPU: &gpu, Scale: &scale,
		QueueMax: *queueMax, CacheMaxBytes: *cacheMax, CacheDir: *cacheDir,
		Self: *self, Peers: peerList, PeerInflight: *peerFlight,
		PeerExecTimeout: *peerExecTO,
	})
	if len(peerList) > 0 {
		log.Printf("snaked: clustered as %s with %d peer(s)", *self, len(peerList))
	}
	handler := svc.Handler()
	if *pprofOn {
		// Wrap rather than touch the service mux: the pprof handlers are
		// registered here, explicitly, instead of via net/http/pprof's
		// DefaultServeMux side effects, so the profiling surface exists only
		// behind this flag.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("snaked: pprof enabled under /debug/pprof/")
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("snaked: listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("snaked: %v: draining (budget %v)", sig, *drain)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop intake first so new jobs get 503s, then drain the pool.
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("snaked: http shutdown: %v", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("snaked: drain incomplete, aborted running jobs: %v", err)
	}
	log.Printf("snaked: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snaked:", err)
	os.Exit(1)
}
