package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"memreliability/internal/obs"
)

// TestMetricsPromExposition exercises the Prometheus endpoint, the
// server's only metrics surface: format headers, HELP/TYPE lines for the
// server families, per-route request counting, and the engine's per-kind
// estimator counter climbing after an estimate.
func TestMetricsPromExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	get(t, ts.URL+"/healthz")
	if resp, body := post(t, ts.URL+"/v1/estimate",
		`{"model":"SC","threads":2,"estimator":"exact","seed":3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d: %s", resp.StatusCode, body)
	}

	resp, body := get(t, ts.URL+"/metrics/prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/prom status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# HELP serve_requests_total ",
		"# TYPE serve_requests_total counter",
		"# TYPE serve_request_seconds histogram",
		"# TYPE serve_job_queue_depth gauge",
		"# TYPE serve_computations_total counter",
		"# TYPE serve_computations_inflight gauge",
		"# TYPE serve_jobs_accepted_total counter",
		"serve_computations_total 1",
		"serve_computations_inflight 0",
		`serve_requests_total{route="GET /healthz"} 1`,
		`serve_requests_total{route="POST /v1/estimate"} 1`,
		`serve_cache_events_total{route="POST /v1/estimate",state="miss"} 1`,
		"# TYPE estimator_queries_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The per-kind engine counter is process-global, so other tests may
	// have raised it — assert presence with a positive value, not ==.
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `estimator_queries_total{kind="exact"} `) {
			found = true
			v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil || v < 1 {
				t.Errorf("bad exact-kind count line %q", line)
			}
		}
	}
	if !found {
		t.Error(`exposition missing estimator_queries_total{kind="exact"}`)
	}
	assertMonotoneBuckets(t, text)

	if resp, _ := get(t, ts.URL+"/metrics"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics status %d, want 404", resp.StatusCode)
	}
}

// assertMonotoneBuckets checks every histogram series in the exposition
// for non-decreasing cumulative bucket counts (the registry emits
// buckets in ascending-bound order).
func assertMonotoneBuckets(t *testing.T, text string) {
	t.Helper()
	last := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		i := strings.Index(line, `le="`)
		if !strings.Contains(line, "_bucket{") || i < 0 {
			continue
		}
		series := line[:strings.Index(line, "{")] + line[:i] // name + labels before le
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if prev, ok := last[series]; ok && v < prev {
			t.Errorf("bucket counts decrease on %q: %d after %d", line, v, prev)
		}
		last[series] = v
	}
	if len(last) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
}

// TestRequestIDHeader pins the X-Request-ID contract: generated when
// absent, echoed when well-formed, replaced when hostile.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, _ := get(t, ts.URL+"/healthz")
	gen := resp.Header.Get("X-Request-ID")
	if gen == "" {
		t.Fatal("no X-Request-ID generated")
	}

	for _, tc := range []struct {
		sent string
		echo bool
	}{
		{"client-abc.123", true},
		{"bad id!with junk", false},
		{strings.Repeat("x", 65), false},
	} {
		req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", tc.sent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if tc.echo && got != tc.sent {
			t.Errorf("well-formed ID %q not propagated, got %q", tc.sent, got)
		}
		if !tc.echo && (got == "" || strings.Contains(got, " ")) {
			t.Errorf("hostile ID %q: response ID %q not regenerated", tc.sent, got)
		}
	}
}

// TestTraceEnvelope checks the X-Trace opt-in: the response becomes an
// envelope carrying the span tree plus the byte-for-byte original JSON
// body, and the tree reaches down into the engine spans.
func TestTraceEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqBody := `{"model":"TSO","threads":2,"estimator":"mc","trials":4096,"seed":11}`

	// Plain request first so the traced one is a cache hit of the same
	// bytes; then a traced miss on a different seed exercises the
	// compute spans.
	_, plain := post(t, ts.URL+"/v1/estimate", reqBody)

	req, err := http.NewRequest("POST", ts.URL+"/v1/estimate", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	envBody := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced status %d: %s", resp.StatusCode, envBody)
	}

	var env struct {
		Trace    obs.SpanJSON    `json:"trace"`
		Response json.RawMessage `json:"response"`
	}
	if err := json.Unmarshal(envBody, &env); err != nil {
		t.Fatalf("parse envelope: %v\n%s", err, envBody)
	}
	if env.Trace.Name != "http.request" {
		t.Errorf("trace root = %q", env.Trace.Name)
	}
	if env.Trace.Attrs["request_id"] == "" {
		t.Error("trace root missing request_id attr")
	}
	var a, b any
	if err := json.Unmarshal(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Response, &b); err != nil {
		t.Fatal(err)
	}
	ca, _ := json.Marshal(a)
	cb, _ := json.Marshal(b)
	if string(ca) != string(cb) {
		t.Errorf("embedded response differs from plain body:\n%s\n%s", ca, cb)
	}

	// A traced miss must show the engine spans under the request root.
	req2, err := http.NewRequest("POST", ts.URL+"/v1/estimate",
		strings.NewReader(`{"model":"TSO","threads":2,"estimator":"mc","trials":4096,"seed":12}`))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("X-Trace", "1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	envBody2 := readAll(t, resp2)
	for _, want := range []string{`"cache.lookup"`, `"compute"`, `"estimator.dispatch"`} {
		if !strings.Contains(string(envBody2), want) {
			t.Errorf("traced miss envelope missing span %s:\n%s", want, envBody2)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// brokenWriter fails every body write, simulating a client that
// disconnected mid-stream.
type brokenWriter struct {
	h http.Header
}

func (b *brokenWriter) Header() http.Header {
	if b.h == nil {
		b.h = make(http.Header)
	}
	return b.h
}
func (b *brokenWriter) WriteHeader(int) {}
func (b *brokenWriter) Write([]byte) (int, error) {
	return 0, context.Canceled
}

// TestFailedWriteCountsNothing is the satellite-6 regression test: a
// response the client never received must not count as a cache outcome
// — but the computation itself still counts, and the cached bytes still
// serve the next client as a hit.
func TestFailedWriteCountsNothing(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	compute := func(ctx context.Context) (any, error) {
		return map[string]string{"v": "1"}, nil
	}
	req := httptest.NewRequest("GET", "/v1/litmus", nil)

	// The request never went through the mux, so it counts on the
	// unmatched route's series.
	cache := srv.obs.route(req.Pattern).cache
	srv.cached(&brokenWriter{}, req, "k", compute)
	if got := cache["miss"].Value(); got != 0 {
		t.Errorf("misses = %d after failed write, want 0", got)
	}
	if got := cache["hit"].Value(); got != 0 {
		t.Errorf("hits = %d after failed write, want 0", got)
	}
	if got := srv.obs.computations.Value(); got != 1 {
		t.Errorf("computations = %d, want 1 (work happened)", got)
	}

	rec := httptest.NewRecorder()
	srv.cached(rec, req, "k", compute)
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second serve X-Cache = %q, want hit (bytes were cached)", got)
	}
	if got := cache["hit"].Value(); got != 1 {
		t.Errorf("hits = %d after successful write, want 1", got)
	}
	if got := srv.obs.computations.Value(); got != 1 {
		t.Errorf("computations = %d, want still 1", got)
	}
}

// TestJobQueueDepthGauge pins the queue-depth gauge transitions: one
// queued job with no workers raises it to 1.
func TestJobQueueDepthGauge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := testQueueGauge()
	st := newJobStore(ctx, 0, 0, 4, 64, g, nil)
	defer func() {
		cancel()
		st.drainAndWait()
	}()
	if _, _, err := st.Submit(context.Background(), smallSpec(41)); err != nil {
		t.Fatal(err)
	}
	if got := g.Value(); got != 1 {
		t.Errorf("queue depth = %v after enqueue, want 1", got)
	}
}
