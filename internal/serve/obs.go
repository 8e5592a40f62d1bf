package serve

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"memreliability/internal/obs"
)

const routeUnmatched = "unmatched"

// routeMetrics is one route's instrumentation bundle.
type routeMetrics struct {
	requests *obs.Counter
	latency  *obs.Histogram
	cache    map[string]*obs.Counter // X-Cache state → events counter
}

// serveObs is the server's observability state: a per-server metrics
// registry (so independent servers — and tests — never collide), the
// pre-resolved handles every serve event is counted on, each at exactly
// one site, and the request-ID generator.
type serveObs struct {
	reg            *obs.Registry
	routes         map[string]*routeMetrics
	computations   *obs.Counter // leader computations, served or not
	inflight       *obs.Gauge   // leader computations running now
	cacheEvictions *obs.Counter // response bodies dropped by the cache's capacity bound
	jobsAccepted   *obs.Counter // sweep jobs newly enqueued
	queueDepth     *obs.Gauge

	idPrefix  string
	idCounter atomic.Uint64
}

// newServeObs builds the registry and pre-registers every route's
// series. The ID prefix is fresh entropy per server start (crypto/rand,
// never the experiment RNG), so request IDs from restarts never collide
// in aggregated logs.
func newServeObs() *serveObs {
	o := &serveObs{
		reg:    obs.NewRegistry(),
		routes: make(map[string]*routeMetrics, len(routes)+1),
	}
	var nonce [4]byte
	if _, err := rand.Read(nonce[:]); err == nil {
		o.idPrefix = hex.EncodeToString(nonce[:])
	} else {
		o.idPrefix = "00000000"
	}
	for _, rt := range routes {
		o.addRoute(rt.pattern)
	}
	o.addRoute(routeUnmatched)
	o.computations = o.reg.Counter("serve_computations_total",
		"Leader computations of the cached endpoints, counted whether or not the response reaches the client.")
	o.inflight = o.reg.Gauge("serve_computations_inflight",
		"Leader computations running now, including those waiting for an estimate worker slot.")
	o.cacheEvictions = o.reg.Counter("serve_cache_evictions_total",
		"Response bodies evicted by the response cache's capacity bound (Config.CacheSize).")
	o.jobsAccepted = o.reg.Counter("serve_jobs_accepted_total",
		"Sweep jobs newly enqueued (a resubmitted identical spec is not counted).")
	o.queueDepth = o.reg.Gauge("serve_job_queue_depth",
		"Sweep jobs queued and not yet picked up by a worker.")
	return o
}

// addRoute registers one route pattern's series.
func (o *serveObs) addRoute(pattern string) {
	label := obs.L("route", pattern)
	rm := &routeMetrics{
		requests: o.reg.Counter("serve_requests_total",
			"HTTP requests served, by route pattern.", label),
		latency: o.reg.Histogram("serve_request_seconds",
			"HTTP request latency, by route pattern.", obs.LatencyBuckets(), label),
		cache: make(map[string]*obs.Counter, 4),
	}
	for _, state := range []string{"hit", "miss", "dedup", "disk"} {
		rm.cache[state] = o.reg.Counter("serve_cache_events_total",
			"Cache outcomes on successfully written responses, by route and state.",
			label, obs.L("state", state))
	}
	o.routes[pattern] = rm
}

// route resolves a mux pattern to its metrics bundle ("" and unknown
// patterns map to the unmatched series).
func (o *serveObs) route(pattern string) *routeMetrics {
	if rm, ok := o.routes[pattern]; ok {
		return rm
	}
	return o.routes[routeUnmatched]
}

// cacheEvent counts one successfully written cache outcome.
func (rm *routeMetrics) cacheEvent(state string) {
	if c, ok := rm.cache[state]; ok {
		c.Inc()
	}
}

// requestID returns the sanitized client-provided ID, or a generated
// one. Propagated IDs are capped and restricted to a safe charset so a
// hostile header cannot smuggle log-breaking bytes.
func (o *serveObs) requestID(fromHeader string) string {
	if id := sanitizeRequestID(fromHeader); id != "" {
		return id
	}
	return fmt.Sprintf("%s-%06d", o.idPrefix, o.idCounter.Add(1))
}

// sanitizeRequestID keeps [A-Za-z0-9._-] up to 64 bytes; anything else
// voids the whole ID (a partial ID would be worse than a fresh one).
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// statusRecorder passes writes through while capturing the status code,
// so the middleware can log it. A failed body write reaches the cache
// pipeline as writeCached's own error, which countServed checks.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (rw *statusRecorder) WriteHeader(code int) {
	if rw.status == 0 {
		rw.status = code
	}
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *statusRecorder) Write(b []byte) (int, error) {
	if rw.status == 0 {
		rw.status = http.StatusOK
	}
	return rw.ResponseWriter.Write(b)
}

// traceRecorder buffers the handler's body instead of writing it, so an
// X-Trace request can be answered with a wrapper that carries the trace
// alongside the byte-for-byte original body. Headers pass through to
// the real response (the embedded writer's Header map), keeping X-Cache
// and Content-Type observable.
type traceRecorder struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (tw *traceRecorder) WriteHeader(code int) {
	if tw.status == 0 {
		tw.status = code
	}
}

func (tw *traceRecorder) Write(b []byte) (int, error) {
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	return tw.buf.Write(b)
}

// traceEnvelope is the X-Trace response wrapper: the request's span
// tree plus the untouched original response. JSON bodies embed verbatim
// (the cached bytes are not re-encoded); non-JSON bodies (e.g.
// /metrics/prom text) ship as a JSON string.
type traceEnvelope struct {
	Trace    obs.SpanJSON    `json:"trace"`
	Response json.RawMessage `json:"response,omitempty"`
	Body     string          `json:"body,omitempty"`
}

// writeTraced flushes a buffered traced response: the recorded status,
// then the envelope.
func writeTraced(w http.ResponseWriter, tw *traceRecorder, root *obs.Span) {
	env := traceEnvelope{Trace: root.Export()}
	body := tw.buf.Bytes()
	if ct := w.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") && json.Valid(body) {
		env.Response = json.RawMessage(body)
	} else {
		env.Body = string(body)
	}
	out, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encode trace envelope"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	status := tw.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	w.Write(append(out, '\n'))
}
