// Package serve is the HTTP estimation service: a long-running JSON API
// over the paper's estimators (Pr[A] exact/full-MC/hybrid, Theorem 4.1
// window distributions, litmus conformance) and the sweep engine.
//
// The hot path leans on the engine's reproducibility guarantee: every
// estimator is deterministic in its request, so responses are perfectly
// cacheable. Cached endpoints share one pipeline: a canonical request
// key and one get-or-compute-once LRU of encoded response bodies
// (internal/lru). N concurrent identical requests run the estimator
// once and all receive byte-identical bodies; a failed computation is
// not kept, so the next request tries again. Async sweep jobs run on a
// separate bounded worker pool (so a heavy sweep can never starve a
// cheap estimate) and are content-addressed by their normalized spec,
// which deduplicates resubmissions for free.
//
// Endpoints:
//
//	POST /v1/estimate              Pr[A] via exact | mc | hybrid
//	POST /v1/windowdist            exact Pr[B_γ] distribution (Thm 4.1)
//	GET  /v1/litmus                litmus conformance matrix
//	POST /v1/sweeps                submit an async sweep job
//	GET  /v1/sweeps                list jobs
//	GET  /v1/sweeps/{id}           poll one job
//	GET  /v1/sweeps/{id}/artifact  fetch the finished versioned artifact
//	GET  /healthz                  liveness
//	GET  /metrics/prom             Prometheus text exposition
//
// JSON request bodies are read up to MaxRequestBodyBytes (1 MiB); a
// longer body is answered with 413.
//
// Cache state travels in the X-Cache response header (miss | hit |
// dedup | disk), never in the body — bodies stay byte-identical across
// cache states. The disk state reports a hit in the optional persistent
// content-addressed store (Config.Store), the second cache tier behind
// the in-memory LRU, shared across restarts and fleet members.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"memreliability/internal/estimator"
	"memreliability/internal/litmus"
	"memreliability/internal/lru"
	"memreliability/internal/mc"
	"memreliability/internal/obs"
	"memreliability/internal/store"
	"memreliability/internal/sweep"
)

// ErrBadConfig reports an invalid server configuration.
var ErrBadConfig = errors.New("serve: bad config")

// ErrBadRequest reports a malformed or invalid API request.
var ErrBadRequest = errors.New("serve: bad request")

// ErrBodyTooLarge reports a request body over MaxRequestBodyBytes; the
// API answers it with 413.
var ErrBodyTooLarge = errors.New("serve: request body too large")

// MaxRequestBodyBytes bounds a JSON request body (/v1/estimate,
// /v1/windowdist, POST /v1/sweeps). The largest legitimate body, a sweep
// spec, is a few kilobytes; the server reads no further than this.
const MaxRequestBodyBytes = 1 << 20

// Config configures a Server. The zero value gets sensible defaults.
type Config struct {
	// CacheSize bounds the LRU result cache, in entries. 0 means 1024.
	CacheSize int
	// EstimateWorkers is the number of worker slots the cached
	// endpoints' computations (estimate, windowdist, litmus) share, and
	// so their total CPU parallelism. A computation holds one slot while
	// it runs, and at most EstimateWorkers run at once; an estimate's
	// Monte Carlo also borrows idle slots, one chunk at a time (mc.Pool),
	// so a lone miss fans out over the idle ones. Borrowed slots never
	// change a response's bytes. 0 means GOMAXPROCS.
	EstimateWorkers int
	// SweepWorkers bounds concurrent async sweep jobs. 0 means 1.
	SweepWorkers int
	// SweepCellWorkers is the per-job sweep worker budget (pure
	// scheduling — artifacts never depend on it). 0 means GOMAXPROCS.
	SweepCellWorkers int
	// QueueDepth bounds queued-but-not-running sweep jobs; submissions
	// beyond it are rejected with 503. 0 means 16.
	QueueDepth int
	// MaxJobs bounds retained sweep jobs, finished artifacts included:
	// once full, a new submission evicts the oldest terminal job, or is
	// rejected with 503 while every retained job is still active. Keeps
	// a long-running daemon's memory bounded. 0 means 64.
	MaxJobs int
	// Logger, when non-nil, receives one structured record per request
	// (request_id, method, route, status, duration_ms, cache state).
	// Nil disables request logging.
	Logger *slog.Logger
	// Store, when non-nil, is the persistent content-addressed result
	// store: a second cache tier behind the LRU. A response found there
	// serves with X-Cache: disk and becomes the LRU entry; every
	// computation writes through. Because results are deterministic in
	// their canonical key, the store is safe to share across restarts
	// and between fleet members on shared storage.
	Store *store.Store
	// RunSweep, when non-nil, replaces the engine async sweep jobs run
	// on (sweep.Run) — coordinator mode plugs the distributed cluster
	// engine in here. The contract is byte-identity: for a given spec
	// the runner must produce the artifact sweep.Run would.
	RunSweep func(ctx context.Context, spec sweep.Spec, opts sweep.Options) (*sweep.Artifact, error)
}

// withDefaults returns the config with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.EstimateWorkers == 0 {
		c.EstimateWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SweepWorkers == 0 {
		c.SweepWorkers = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 64
	}
	return c
}

// validate rejects negative knobs.
func (c Config) validate() error {
	if c.CacheSize < 0 || c.EstimateWorkers < 0 || c.SweepWorkers < 0 ||
		c.SweepCellWorkers < 0 || c.QueueDepth < 0 || c.MaxJobs < 0 {
		return fmt.Errorf("%w: negative size or worker count", ErrBadConfig)
	}
	return nil
}

// routes is the server's route table: New registers each pattern on the
// mux, and newServeObs gives each one its per-route series, which exist
// (at zero) from the first scrape. A request that matches no pattern
// lands on the routeUnmatched series.
var routes = []struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request)
}{
	{"GET /healthz", (*Server).handleHealthz},
	{"GET /metrics/prom", (*Server).handleMetricsProm},
	{"GET /v1/litmus", (*Server).handleLitmus},
	{"POST /v1/estimate", (*Server).handleEstimate},
	{"POST /v1/windowdist", (*Server).handleWindowDist},
	{"POST /v1/sweeps", (*Server).handleSweepSubmit},
	{"GET /v1/sweeps", (*Server).handleSweepList},
	{"GET /v1/sweeps/{id}", (*Server).handleSweepStatus},
	{"GET /v1/sweeps/{id}/artifact", (*Server).handleSweepArtifact},
}

// Server is the estimation service. It implements http.Handler; pair it
// with an http.Server (see cmd/memserved) or httptest for tests. Close
// releases its background workers.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *lru.Cache[string, []byte] // canonical request key → encoded response body
	jobs  *jobStore
	obs   *serveObs
	pool  *mc.Pool // estimate-worker slots, held by computations and lent to their Monte Carlo

	baseCtx context.Context
	cancel  context.CancelFunc
}

// New returns a started server. Call Close when done with it.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	so := newServeObs()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   lru.New[string, []byte](cfg.CacheSize, so.cacheEvictions),
		jobs:    newJobStore(ctx, cfg.SweepWorkers, cfg.SweepCellWorkers, cfg.QueueDepth, cfg.MaxJobs, so.queueDepth, cfg.RunSweep),
		obs:     so,
		pool:    mc.NewPool(cfg.EstimateWorkers),
		baseCtx: ctx,
		cancel:  cancel,
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
	}
	return s, nil
}

// Close stops accepting new computations, cancels running ones, and
// waits for the sweep workers to exit. In-flight HTTP handlers return
// 503 once their computation observes the cancellation; draining open
// connections is the enclosing http.Server's job (Shutdown).
func (s *Server) Close() {
	s.cancel()
	s.jobs.drainAndWait()
}

// ServeHTTP dispatches to the API routes through the observability
// middleware: every request gets an X-Request-ID (propagated from the
// client when well-formed, generated otherwise), a per-route latency
// observation, an optional structured log record, and — when the client
// sends "X-Trace: 1" — a response envelope carrying the request's span
// tree around the byte-for-byte original body. The request and its
// latency are counted once, on the route's series, when the handler
// returns.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	reqID := s.obs.requestID(r.Header.Get("X-Request-ID"))
	w.Header().Set("X-Request-ID", reqID)

	rec := &statusRecorder{ResponseWriter: w}
	var out http.ResponseWriter = rec
	var root *obs.Span
	var tw *traceRecorder
	if r.Header.Get("X-Trace") == "1" {
		root = obs.NewTrace("http.request",
			obs.L("method", r.Method),
			obs.L("request_id", reqID))
		r = r.WithContext(obs.WithSpan(r.Context(), root))
		tw = &traceRecorder{ResponseWriter: rec}
		out = tw
	}

	s.mux.ServeHTTP(out, r)

	elapsed := time.Since(start)
	route := r.Pattern
	if route == "" {
		route = routeUnmatched
	}
	rm := s.obs.route(route)
	rm.requests.Inc()
	rm.latency.Observe(elapsed.Seconds())

	if root != nil {
		root.End()
		writeTraced(rec, tw, root)
	}
	if s.cfg.Logger != nil {
		status := rec.status
		if tw != nil && status == 0 {
			status = tw.status
		}
		if status == 0 {
			status = http.StatusOK
		}
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
			slog.String("cache", w.Header().Get("X-Cache")))
	}
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeError writes the uniform JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// errorStatus maps a computation or submission error to an HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest), errors.Is(err, sweep.ErrBadSpec),
		errors.Is(err, estimator.ErrBadQuery):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// decodeStrict decodes the request body over the given defaults base,
// rejecting unknown fields and trailing garbage. Omitted fields keep the
// base's paper defaults; explicit zeros stick. A body over
// MaxRequestBodyBytes is read no further and fails with ErrBodyTooLarge.
func decodeStrict(w http.ResponseWriter, r *http.Request, base any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("%w: over %d bytes", ErrBodyTooLarge, MaxRequestBodyBytes)
		}
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(base); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", ErrBadRequest)
	}
	return nil
}

// cached serves one cacheable endpoint through the response cache. The
// first request for a key fills its entry: from the persistent store
// when one is configured and holds the key (X-Cache: disk), otherwise by
// running compute (miss, see computeBody). Concurrent identical requests
// wait for that one fill and share its bytes (dedup); later ones find
// the entry done (hit). A failed fill is not kept, so the next request
// tries again. Every path returns the same bytes.
//
// The route's cache-outcome series is incremented only after the body
// write succeeds: a client that disconnects mid-stream received nothing,
// and counting it would overcount served traffic. The computation
// series (serve_computations_total, serve_computations_inflight) are
// updated inside the fill — they measure estimator work, which happens
// whether or not the bytes land.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, key string, compute func(ctx context.Context) (any, error)) {
	span := obs.SpanFrom(r.Context())
	lookup := span.Child("cache.lookup")
	// state is written only by the fill, which Get runs on this
	// goroutine when (and only when) the outcome is Computed.
	state := "miss"
	body, outcome, err := s.cache.Get(key, func() ([]byte, error) {
		lookup.End()
		if s.cfg.Store != nil {
			read := span.Child("store.lookup")
			body, ok := s.cfg.Store.Get(key)
			read.End()
			// A corrupt or missing record reads as a miss (the store's
			// contract) and falls through to compute.
			if ok {
				state = "disk"
				return body, nil
			}
		}
		return s.computeBody(span, key, compute)
	})
	lookup.End()
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	switch outcome {
	case lru.Waited:
		state = "dedup"
	case lru.Ready:
		state = "hit"
	}
	s.countServed(w, r, state, body)
}

// computeBody runs compute on one of the estimate worker slots, encodes
// its result as the response body, and writes the body through to the
// persistent store. After Close it refuses with ErrShuttingDown rather
// than start, keep or serve a computation.
func (s *Server) computeBody(span *obs.Span, key string, compute func(ctx context.Context) (any, error)) ([]byte, error) {
	s.obs.inflight.Add(1)
	defer s.obs.inflight.Add(-1)
	// Refuse before acquiring: Acquire takes a free slot without
	// looking at the context, so this check is what makes post-Close
	// refusal deterministic.
	if s.baseCtx.Err() != nil {
		return nil, ErrShuttingDown
	}
	if err := s.pool.Acquire(s.baseCtx); err != nil {
		return nil, ErrShuttingDown
	}
	defer s.pool.Release()
	// Compute against the server's context, not the request's: the
	// result is shared with concurrent duplicates and then cached, so
	// one impatient client must not poison it. The requesting trace
	// span rides along (scheduling metadata only — the computation
	// itself is deterministic in the query).
	s.obs.computations.Inc()
	cspan := span.Child("compute")
	v, err := compute(obs.WithSpan(s.baseCtx, cspan))
	cspan.End()
	if err != nil {
		if s.baseCtx.Err() != nil {
			return nil, ErrShuttingDown
		}
		return nil, err
	}
	// Computations that ignore ctx (litmus.CheckAll) can complete across
	// a Close; honor the shutdown rather than caching and serving
	// mid-drain.
	if s.baseCtx.Err() != nil {
		return nil, ErrShuttingDown
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encode response: %w", err)
	}
	data = append(data, '\n')
	// Write-through to the persistent tier is best-effort (the store
	// counts its own put errors) and never gates the response.
	if s.cfg.Store != nil {
		s.cfg.Store.Put(key, data) //nolint:errcheck
	}
	return data, nil
}

// countServed writes a cacheable body with its X-Cache state and, only
// if the write fully succeeds, counts the cache outcome on the route's
// serve_cache_events_total series. A failed write (client gone
// mid-stream) counts nothing.
func (s *Server) countServed(w http.ResponseWriter, r *http.Request, state string, body []byte) {
	if err := writeCached(w, state, body); err != nil {
		return
	}
	s.obs.route(r.Pattern).cacheEvent(state)
}

// writeCached writes a cacheable body with its X-Cache state, reporting
// whether the full body reached the client.
func writeCached(w http.ResponseWriter, state string, body []byte) error {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", state)
	n, err := w.Write(body)
	if err != nil {
		return err
	}
	if n != len(body) {
		return fmt.Errorf("serve: short write: %d of %d bytes", n, len(body))
	}
	return nil
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleMetricsProm serves the Prometheus text exposition: the server's
// own registry (per-route request/latency/cache series, computations,
// accepted jobs, job-queue depth) followed by the process-global registry (estimator, mc, core,
// sweep engine metrics). The two registries use disjoint name prefixes,
// so the concatenation is a valid exposition.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.obs.reg.WritePrometheus(w); err != nil {
		return
	}
	obs.Default().WritePrometheus(w)
}

// EstimateRequest asks for one Pr[A] estimate. Omitted fields take the
// paper's defaults (n=2, m=64, hybrid, 50000 trials, p=s=1/2, seed 1);
// explicit zeros stick, mirroring the sweep spec's decode-over-defaults
// convention. It is the wire form of an estimator.Query: the handler
// decodes it, converts it with query, and dispatches through the
// estimator registry.
type EstimateRequest struct {
	// Model is a memory model name resolvable by ModelByName.
	Model string `json:"model"`
	// Threads is n (≥ 2).
	Threads int `json:"threads"`
	// PrefixLen is m, at most estimator.PrefixLimit on every estimator.
	PrefixLen int `json:"prefix_len"`
	// Estimator is exact, mc, or hybrid (windowdist has its own
	// endpoint).
	Estimator sweep.Kind `json:"estimator"`
	// Trials is the Monte Carlo budget (mc and hybrid only).
	Trials int `json:"trials"`
	// Seed fully determines the response body.
	Seed uint64 `json:"seed"`
	// StoreProb is p and SwapProb is s.
	StoreProb float64 `json:"store_prob"`
	SwapProb  float64 `json:"swap_prob"`
	// Confidence is the Wilson-interval level of mc results; omitted
	// (or zero) selects the default 0.99. Other estimators ignore it.
	Confidence float64 `json:"confidence,omitempty"`
	// Precision, when present, switches the mc/hybrid estimator to
	// adaptive-precision sampling: trials run in deterministic rounds
	// until the interval meets target_half_width and/or target_rel_err,
	// capped at max_trials (0 = the trials field). The result then
	// carries trials_used, rounds, and stop_reason. Requests without a
	// precision block keep their exact historical bytes (omitempty), and
	// precision participates in the canonical cache key.
	Precision *estimator.Precision `json:"precision,omitempty"`
}

// defaultEstimateRequest is the decode base with the paper's defaults
// (estimator.DefaultQuery's normal form). Confidence stays zero so the
// request echo is unchanged for callers that never set it.
func defaultEstimateRequest() EstimateRequest {
	q := estimator.DefaultQuery()
	return EstimateRequest{
		Threads:   q.Threads,
		PrefixLen: q.PrefixLen,
		Estimator: q.Kind,
		Trials:    q.Trials,
		Seed:      q.Seed,
		StoreProb: q.StoreProb,
		SwapProb:  q.SwapProb,
	}
}

// query converts the request into its canonical estimator query.
func (req EstimateRequest) query() estimator.Query {
	return estimator.Query{
		Kind:       req.Estimator,
		Model:      req.Model,
		Threads:    req.Threads,
		PrefixLen:  req.PrefixLen,
		StoreProb:  req.StoreProb,
		SwapProb:   req.SwapProb,
		Trials:     req.Trials,
		Seed:       req.Seed,
		Confidence: req.Confidence,
		Precision:  req.Precision,
	}
}

// EstimateResponse echoes the normalized request and carries the cell
// result, exactly as the corresponding single-cell sweep artifact would.
type EstimateResponse struct {
	Request EstimateRequest  `json:"request"`
	Result  sweep.CellResult `json:"result"`
}

// cellResult shapes an estimator result as the single-cell artifact cell
// the API has always served, with the request's grid coordinates. The
// conversion itself is the engine's shared CellResultOf.
func cellResult(res estimator.Result, model string, threads, prefixLen int) sweep.CellResult {
	return sweep.CellResultOf(sweep.Cell{
		Index:     0,
		Model:     model,
		Threads:   threads,
		PrefixLen: prefixLen,
		Estimator: res.Kind,
	}, res)
}

// handleEstimate serves POST /v1/estimate through the cached pipeline:
// decode over the defaults base, canonicalize, validate once via the
// estimator's canonical rules, and dispatch through the registry.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	req := defaultEstimateRequest()
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	// The cache is keyed by the normalized query, so requests differing
	// only in casing or in spelling the MaxTrials default out share one
	// entry. The echo must therefore be the normalized form too, or the
	// bytes a request receives would depend on which variant populated
	// the cache first.
	query := req.query().Normalized()
	req.Estimator, req.Model, req.Precision = query.Kind, query.Model, query.Precision
	if req.Estimator == sweep.WindowDist {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: estimator windowdist has its own endpoint, POST /v1/windowdist", ErrBadRequest))
		return
	}
	// Inside a grid sweep an unsatisfiable cell is skipped; for a
	// single-cell request a skip would read as Pr[A] = 0, so reject it.
	if req.Estimator == sweep.Exact && req.Threads != 2 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: exact estimator requires threads=2, got %d", ErrBadRequest, req.Threads))
		return
	}
	if err := query.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := queryKey("estimate", query)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.cached(w, r, key, func(ctx context.Context) (any, error) {
		// The leader holds one slot for its own worker; its Monte Carlo
		// borrows idle slots chunk by chunk, so the endpoint never runs
		// more than EstimateWorkers chunks at once. Results never
		// depend on it.
		res, err := estimator.EstimateExec(ctx, query, estimator.Exec{Workers: 1, Helpers: s.pool})
		if err != nil {
			return nil, err
		}
		return EstimateResponse{
			Request: req,
			Result:  cellResult(res, req.Model, req.Threads, req.PrefixLen),
		}, nil
	})
}

// WindowDistRequest asks for the exact window-growth distribution
// Pr[B_γ], γ ∈ [0, max_gamma] (Theorem 4.1 at finite m). Omitted fields
// take the paper's defaults (m=64, max_gamma=8, p=s=1/2).
type WindowDistRequest struct {
	Model     string  `json:"model"`
	PrefixLen int     `json:"prefix_len"`
	MaxGamma  int     `json:"max_gamma"`
	StoreProb float64 `json:"store_prob"`
	SwapProb  float64 `json:"swap_prob"`
}

// defaultWindowDistRequest is the decode base with the paper's defaults
// (estimator.DefaultQuery's normal form).
func defaultWindowDistRequest() WindowDistRequest {
	q := estimator.DefaultQuery()
	return WindowDistRequest{PrefixLen: q.PrefixLen, MaxGamma: q.MaxGamma, StoreProb: q.StoreProb, SwapProb: q.SwapProb}
}

// WindowDistResponse echoes the normalized request and carries the
// windowdist cell, its Dist field tabulating Pr[B_γ].
type WindowDistResponse struct {
	Request WindowDistRequest `json:"request"`
	Result  sweep.CellResult  `json:"result"`
}

// query converts the request into its canonical estimator query. The
// window distribution is thread-count independent, so Threads stays 0 —
// matching the windowdist cells a sweep grid emits.
func (req WindowDistRequest) query() estimator.Query {
	return estimator.Query{
		Kind:      sweep.WindowDist,
		Model:     req.Model,
		PrefixLen: req.PrefixLen,
		StoreProb: req.StoreProb,
		SwapProb:  req.SwapProb,
		MaxGamma:  req.MaxGamma,
	}
}

// handleWindowDist serves POST /v1/windowdist through the cached
// pipeline, dispatching through the estimator registry like every other
// surface.
func (s *Server) handleWindowDist(w http.ResponseWriter, r *http.Request) {
	req := defaultWindowDistRequest()
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	query := req.query().Normalized()
	req.Model = query.Model
	if err := query.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := queryKey("windowdist", query)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.cached(w, r, key, func(ctx context.Context) (any, error) {
		res, err := estimator.EstimateExec(ctx, query, estimator.Exec{Workers: 1, Helpers: s.pool})
		if err != nil {
			return nil, err
		}
		return WindowDistResponse{
			Request: req,
			Result:  cellResult(res, req.Model, 0, req.PrefixLen),
		}, nil
	})
}

// handleLitmus serves GET /v1/litmus: the full conformance matrix in the
// encoding shared with cmd/litmusrun -json. The matrix is static, so it
// is cached like any other deterministic result.
func (s *Server) handleLitmus(w http.ResponseWriter, r *http.Request) {
	s.cached(w, r, "litmus", func(ctx context.Context) (any, error) {
		results, err := litmus.CheckAll()
		if err != nil {
			return nil, err
		}
		return results, nil
	})
}

// handleSweepSubmit serves POST /v1/sweeps: decode a sweep spec over the
// paper-defaults base and enqueue it as an async job. A resubmitted
// identical spec returns the existing job (200, not 202).
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	spec := sweep.DefaultSpec()
	if err := decodeStrict(w, r, &spec); err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	status, created, err := s.jobs.Submit(s.baseCtx, spec)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
		s.obs.jobsAccepted.Inc()
	}
	w.Header().Set("Location", "/v1/sweeps/"+status.ID)
	writeJSON(w, code, status)
}

// handleSweepList serves GET /v1/sweeps.
func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{s.jobs.List()})
}

// handleSweepStatus serves GET /v1/sweeps/{id}.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	status, err := s.jobs.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// handleSweepArtifact serves GET /v1/sweeps/{id}/artifact: the finished
// job's versioned artifact, byte-identical to what cmd/memsweep -o would
// have written for the same spec. A job that is not done yet answers 409
// with its status.
func (s *Server) handleSweepArtifact(w http.ResponseWriter, r *http.Request) {
	body, status, err := s.jobs.Artifact(r.PathValue("id"))
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	if status.State != StateDone {
		writeJSON(w, http.StatusConflict, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// queryKey derives the cache key of a fully-defaulted request from its
// canonicalized estimator query: the endpoint name plus the query's
// deterministic JSON encoding (struct field order is fixed, so identical
// queries always collide — which is the point). The raw Confidence value
// (0 vs an explicit level) is part of the key because it is part of the
// request echo in the cached body.
func queryKey(endpoint string, q estimator.Query) (string, error) {
	data, err := json.Marshal(q.Normalized())
	if err != nil {
		return "", fmt.Errorf("serve: canonical key: %w", err)
	}
	return endpoint + ":" + string(data), nil
}
