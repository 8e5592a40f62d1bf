// memserved is the long-running estimation service: an HTTP JSON API over
// the paper's estimators and the sweep engine, with a canonical-key LRU
// result cache, singleflight deduplication of concurrent identical
// requests, and async sweep jobs on a bounded worker pool. Responses for
// identical (request, seed) are byte-identical, inheriting the engine's
// reproducibility guarantee.
//
// Usage:
//
//	memserved                          # listen on :8080
//	memserved -addr 127.0.0.1:9090 -cache-size 4096 -sweep-workers 2
//	memserved -pprof-addr 127.0.0.1:6060   # profiling on a separate port
//	memserved -store-dir /var/lib/memserved  # persistent result store
//
// Distributed mode (see the README's "Distributed mode" section):
//
//	memserved -mode=worker -addr :8081
//	memserved -mode=coordinator -cluster-workers http://h1:8081,http://h2:8081 \
//	    -store-dir /shared/results
//
// The default -mode=standalone keeps the historical single-process
// behavior. A worker serves the stateless cell-execution API
// (POST /v1/cells, /healthz, /metrics/prom); a coordinator serves the
// full API but runs async sweep jobs on the worker fleet, sharding
// cells by canonical key, deduplicating against the store, and
// retrying a failed worker's cells on survivors — artifacts stay
// byte-identical to standalone output at any fleet size.
//
// Endpoints: POST /v1/estimate, POST /v1/windowdist, GET /v1/litmus,
// POST /v1/sweeps (+ GET /v1/sweeps, /v1/sweeps/{id},
// /v1/sweeps/{id}/artifact), GET /healthz, GET /metrics/prom (Prometheus
// text exposition, the service's one metrics surface). Every response
// carries an X-Request-ID; "X-Trace: 1" wraps the response in a span-tree
// envelope. See the README for the endpoint reference and curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memreliability/internal/cluster"
	"memreliability/internal/core"
	"memreliability/internal/serve"
	"memreliability/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "memserved: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("memserved", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache-size", 0, "LRU result-cache entries (0 = 1024)")
	estimateWorkers := fs.Int("estimate-workers", 0, "worker slots shared by estimate computations: each holds one and borrows idle ones chunk by chunk (0 = GOMAXPROCS)")
	sweepWorkers := fs.Int("sweep-workers", 0, "concurrent async sweep jobs (0 = 1)")
	sweepCellWorkers := fs.Int("sweep-cell-workers", 0, "per-job sweep worker budget (0 = GOMAXPROCS); never affects artifacts")
	queueDepth := fs.Int("queue-depth", 0, "queued sweep jobs before 503 (0 = 16)")
	maxJobs := fs.Int("max-jobs", 0, "retained sweep jobs incl. finished artifacts; oldest terminal evicted beyond this (0 = 64)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget for open connections")
	logRequests := fs.Bool("log-requests", true, "emit one structured JSON log line per request (request_id, route, status, latency)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	mode := fs.String("mode", "standalone", "process role: standalone | worker | coordinator")
	clusterWorkers := fs.String("cluster-workers", "", "comma-separated worker base URLs (coordinator mode, e.g. http://h1:8081,http://h2:8081)")
	storeDir := fs.String("store-dir", "", "persistent content-addressed result store directory (standalone and coordinator; empty = disabled)")
	cellTimeout := fs.Duration("cell-timeout", 0, "coordinator per-dispatch timeout (0 = 60s)")
	cellRetries := fs.Int("cell-retries", 0, "coordinator per-cell failed-dispatch budget before the sweep fails (0 = 3)")
	cellBatch := fs.Int("cell-batch", 0, "coordinator cells per worker dispatch; never affects artifacts (0 = 8)")
	planCacheCap := fs.Int("plan-cache-cap", 0, "compiled trial-kernel plan cache entries (0 = 128)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *planCacheCap > 0 {
		core.DefaultPlanCache().SetCap(*planCacheCap)
	}

	cfg := serve.Config{
		CacheSize:        *cacheSize,
		EstimateWorkers:  *estimateWorkers,
		SweepWorkers:     *sweepWorkers,
		SweepCellWorkers: *sweepCellWorkers,
		QueueDepth:       *queueDepth,
		MaxJobs:          *maxJobs,
	}
	if *logRequests {
		cfg.Logger = slog.New(slog.NewJSONHandler(logw, nil))
	}

	worker := false
	switch *mode {
	case "standalone":
		if *storeDir != "" {
			st, err := store.Open(*storeDir)
			if err != nil {
				return err
			}
			cfg.Store = st
		}
	case "coordinator":
		urls := splitURLs(*clusterWorkers)
		if len(urls) == 0 {
			return fmt.Errorf("coordinator mode requires -cluster-workers")
		}
		ccfg := cluster.Config{
			Workers:     urls,
			CellTimeout: *cellTimeout,
			MaxRetries:  *cellRetries,
			MaxBatch:    *cellBatch,
		}
		if *storeDir != "" {
			st, err := store.Open(*storeDir)
			if err != nil {
				return err
			}
			// One store serves both tiers: the coordinator's cell-level
			// dedup and the API's response cache.
			ccfg.Store = st
			cfg.Store = st
		}
		coord, err := cluster.New(ccfg)
		if err != nil {
			return err
		}
		cfg.RunSweep = coord.RunSweep
	case "worker":
		worker = true
	default:
		return fmt.Errorf("unknown -mode %q (standalone | worker | coordinator)", *mode)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		stopProf, err := startPprof(*pprofAddr, logw)
		if err != nil {
			l.Close()
			return err
		}
		defer stopProf()
	}

	if worker {
		h := cluster.NewWorker(cluster.WorkerConfig{Workers: *sweepCellWorkers})
		return serveHandler(ctx, l, h, func() {}, *drainTimeout, logw)
	}
	return serveListener(ctx, l, cfg, *drainTimeout, logw)
}

// splitURLs parses a comma-separated URL list, dropping empty entries.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// readHeaderTimeout bounds how long a client may take to send a
// request's headers. Without it, a client that never finishes its
// request line holds a connection and a goroutine forever.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer returns the http.Server that every memserved listener,
// the API's and pprof's, runs on.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// startPprof serves the standard pprof handlers on their own listener —
// a separate address so profiling is never exposed through the API
// port. The returned stop function closes the profiling server.
func startPprof(addr string, logw io.Writer) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	srv := newHTTPServer(mux)
	go srv.Serve(l)
	fmt.Fprintf(logw, "memserved: pprof on %s/debug/pprof/\n", l.Addr())
	return func() { srv.Close() }, nil
}

// serveListener runs the API service on l until ctx is canceled. Split
// from run so tests can inject a listener on an ephemeral port.
func serveListener(ctx context.Context, l net.Listener, cfg serve.Config, drainTimeout time.Duration, logw io.Writer) error {
	srv, err := serve.New(cfg)
	if err != nil {
		l.Close()
		return err
	}
	return serveHandler(ctx, l, srv, srv.Close, drainTimeout, logw)
}

// serveHandler runs any handler on l until ctx is canceled, then drains:
// closeWork stops the handler's background work first (so drained
// handlers answer quickly with 503 instead of holding connections for a
// full compute), and open connections get drainTimeout to finish.
func serveHandler(ctx context.Context, l net.Listener, h http.Handler, closeWork func(), drainTimeout time.Duration, logw io.Writer) error {
	httpSrv := newHTTPServer(h)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(l) }()
	fmt.Fprintf(logw, "memserved: listening on %s\n", l.Addr())

	select {
	case err := <-errc:
		closeWork()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(logw, "memserved: shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	closeWork()
	shutdownErr := httpSrv.Shutdown(drainCtx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return shutdownErr
}
