package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memreliability/internal/litmus"
	"memreliability/internal/sweep"
)

// newTestServer starts a Server behind httptest and tears both down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// post issues a JSON POST and returns the response with its body read.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// get issues a GET and returns the response with its body read.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// metric reads one series, named with its labels exactly as the
// exposition prints it, from /metrics/prom.
func metric(t *testing.T, baseURL, series string) float64 {
	t.Helper()
	resp, body := get(t, baseURL+"/metrics/prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/prom status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if value, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics/prom has no series %s", series)
	return 0
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("body %q", body)
	}
}

func TestEstimateCacheByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"model":"TSO","threads":2,"estimator":"exact","seed":7}`

	resp1, body1 := post(t, ts.URL+"/v1/estimate", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}

	resp2, body2 := post(t, ts.URL+"/v1/estimate", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("bodies differ:\n%s\n%s", body1, body2)
	}

	var out EstimateResponse
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Estimate <= 0 || out.Result.Estimate >= 1 {
		t.Errorf("estimate %v out of (0,1)", out.Result.Estimate)
	}
	// m=64 exceeds the exact-DP cap, so the engine's clamp must show.
	if out.Result.EffectiveM != sweep.ExactPrefixCap {
		t.Errorf("effective_m = %d, want %d", out.Result.EffectiveM, sweep.ExactPrefixCap)
	}
	if hits := metric(t, ts.URL, `serve_cache_events_total{route="POST /v1/estimate",state="hit"}`); hits < 1 {
		t.Errorf("cache hits = %v, want ≥ 1", hits)
	}
	if comps := metric(t, ts.URL, "serve_computations_total"); comps != 1 {
		t.Errorf("serve_computations_total = %v, want 1", comps)
	}
}

// TestEstimateSingleflight is the acceptance-criteria test: N concurrent
// identical requests must run the estimator exactly once and all receive
// byte-identical bodies.
func TestEstimateSingleflight(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"model":"WO","threads":3,"estimator":"hybrid","trials":20000,"seed":11}`

	const n = 16
	var (
		start  sync.WaitGroup
		done   sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
	)
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			resp, body := post(t, ts.URL+"/v1/estimate", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
		}()
	}
	start.Done()
	done.Wait()

	if len(bodies) != n {
		t.Fatalf("got %d bodies, want %d", len(bodies), n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("body %d differs:\n%s\n%s", i, bodies[0], bodies[i])
		}
	}
	if comps := metric(t, ts.URL, "serve_computations_total"); comps != 1 {
		t.Errorf("serve_computations_total = %v, want 1 (singleflight + cache)", comps)
	}
}

func TestEstimateCaseVariantRequestsShareCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp1, body1 := post(t, ts.URL+"/v1/estimate", `{"model":"TSO","threads":2,"estimator":"exact","seed":7}`)
	resp2, body2 := post(t, ts.URL+"/v1/estimate", `{"model":"tso","threads":2,"estimator":"EXACT","seed":7}`)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("case-variant request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("case-variant bodies differ:\n%s\n%s", body1, body2)
	}
}

func TestSweepJobCaseVariantSpecsShareID(t *testing.T) {
	lower := smallSpec(4)
	lower.Models = []string{"sc", "tso"}
	upper := smallSpec(4)
	idLower, err := jobID(lower.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	idUpper, err := jobID(upper.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if idLower != idUpper {
		t.Errorf("model-name casing changed job identity: %s vs %s", idLower, idUpper)
	}
}

func TestEstimateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown model", `{"model":"ARM"}`},
		{"missing model", `{}`},
		{"unknown estimator", `{"model":"SC","estimator":"oracle"}`},
		{"windowdist routed here", `{"model":"SC","estimator":"windowdist"}`},
		{"unknown field", `{"model":"SC","bogus":1}`},
		{"threads too small", `{"model":"SC","threads":1}`},
		// Sizes over the estimator's limits are refused before any
		// scratch is sized from them; 2^62 threads once killed the server.
		{"threads 2^62 for mc-compiled", `{"model":"SC","estimator":"mc-compiled","threads":4611686018427387904,"trials":64}`},
		{"threads 2^62 for mc", `{"model":"SC","estimator":"mc","threads":4611686018427387904,"trials":64}`},
		{"prefix_len 2^62 for hybrid", `{"model":"SC","prefix_len":4611686018427387904,"trials":64}`},
		{"threads over the limit", `{"model":"SC","threads":4097,"trials":64}`},
		{"exact needs n=2", `{"model":"SC","threads":4,"estimator":"exact"}`},
		{"zero trials for mc", `{"model":"SC","estimator":"mc","trials":0}`},
		{"largest int trials for mc", `{"model":"SC","estimator":"mc","trials":9223372036854775807}`},
		{"trials over the limit for hybrid", `{"model":"SC","trials":1073741825}`},
		{"largest int max_trials", `{"model":"SC","estimator":"mc-compiled","trials":1000,` +
			`"precision":{"target_rel_err":0.1,"max_trials":9223372036854775807}}`},
		{"not json", `model=SC`},
	} {
		resp, body := post(t, ts.URL+"/v1/estimate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: no error envelope: %s", tc.name, body)
		}
	}
	if resp, body := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after bad requests: status %d (%s)", resp.StatusCode, body)
	}
}

func TestWindowDistClampMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// An oversized prefix must clamp to the exact-DP cap, identically to
	// a direct request at the cap.
	resp, big := post(t, ts.URL+"/v1/windowdist", `{"model":"WO","prefix_len":64,"max_gamma":6}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, big)
	}
	var out WindowDistResponse
	if err := json.Unmarshal(big, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.EffectiveM != sweep.ExactPrefixCap {
		t.Errorf("effective_m = %d, want %d", out.Result.EffectiveM, sweep.ExactPrefixCap)
	}
	if !strings.Contains(out.Result.Note, "clamped") {
		t.Errorf("note %q does not record the clamp", out.Result.Note)
	}
	if len(out.Result.Dist) != 7 {
		t.Fatalf("dist has %d entries, want 7", len(out.Result.Dist))
	}

	resp, capped := post(t, ts.URL+"/v1/windowdist",
		fmt.Sprintf(`{"model":"WO","prefix_len":%d,"max_gamma":6}`, sweep.ExactPrefixCap))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, capped)
	}
	var ref WindowDistResponse
	if err := json.Unmarshal(capped, &ref); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Result.Dist {
		if out.Result.Dist[i] != ref.Result.Dist[i] {
			t.Errorf("dist[%d] = %v, want %v", i, out.Result.Dist[i], ref.Result.Dist[i])
		}
	}
}

func TestLitmusEndpointSharedEncoding(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/litmus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var results []struct {
		Test     string `json:"test"`
		Model    string `json:"model"`
		Conforms bool   `json:"conforms"`
	}
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if !r.Conforms {
			t.Errorf("%s under %s does not conform", r.Test, r.Model)
		}
	}

	// The endpoint's bytes must equal the shared litmus encoding that
	// cmd/litmusrun -json also emits.
	all, err := litmus.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := litmus.EncodeResultsJSON(&want, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("endpoint bytes differ from litmus.EncodeResultsJSON")
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	spec := `{"models":["SC","TSO"],"threads":[2],"estimators":["exact"],"seed":3}`

	resp, body := post(t, ts.URL+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var status JobStatus
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.ID == "" || status.ArtifactVersion != sweep.ArtifactVersion {
		t.Fatalf("bad submit status: %+v", status)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+status.ID {
		t.Errorf("Location = %q", loc)
	}

	// Resubmitting the identical spec must dedup onto the same job.
	resp, body = post(t, ts.URL+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d: %s", resp.StatusCode, body)
	}
	var dup JobStatus
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != status.ID {
		t.Fatalf("resubmit job %q, want %q", dup.ID, status.ID)
	}
	if got := metric(t, ts.URL, "serve_jobs_accepted_total"); got != 1 {
		t.Errorf("serve_jobs_accepted_total = %v, want 1 (the resubmission is not a new job)", got)
	}

	deadline := time.After(30 * time.Second)
	for status.State != StateDone {
		select {
		case <-deadline:
			t.Fatalf("job stuck in state %q", status.State)
		case <-time.After(10 * time.Millisecond):
		}
		resp, body = get(t, ts.URL+"/v1/sweeps/"+status.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &status); err != nil {
			t.Fatal(err)
		}
		if status.State == StateFailed || status.State == StateCanceled {
			t.Fatalf("job failed: %+v", status)
		}
	}
	if status.CellsDone != status.CellsTotal || status.CellsTotal != 2 {
		t.Errorf("cells %d/%d, want 2/2", status.CellsDone, status.CellsTotal)
	}
	if status.ArtifactPath == "" {
		t.Fatal("done job has no artifact path")
	}

	resp, body = get(t, ts.URL+status.ArtifactPath)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact status %d: %s", resp.StatusCode, body)
	}
	art, err := sweep.DecodeArtifact(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Cells) != 2 {
		t.Fatalf("artifact has %d cells, want 2", len(art.Cells))
	}

	// The served artifact must be byte-identical to a direct engine run
	// of the same spec — the service adds caching, not new semantics.
	direct, err := sweep.Run(t.Context(), sweep.Spec{
		Models: []string{"SC", "TSO"}, Threads: []int{2},
		Estimators: []sweep.Kind{sweep.Exact}, Seed: 3,
		StoreProb: 0.5, SwapProb: 0.5, MaxGamma: 8,
	}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("served artifact differs from direct sweep.Run artifact")
	}
	_ = srv
}

func TestSweepJobErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, spec := range []string{
		`{"models":["ARM"]}`,
		// Budgets over mc.TrialLimit are refused before any compute:
		// a sweep cell's chunk plan for math.MaxInt trials cannot be
		// allocated, and the cells run on the server's own goroutines.
		`{"models":["SC"],"estimators":["mc"],"trials":9223372036854775807}`,
		`{"models":["SC"],"trials":1073741825}`,
		`{"models":["SC"],"trials":100,"precision":{"target_rel_err":0.1,"max_trials":9223372036854775807}}`,
		// Sizes over the estimator's limits, refused before any cell runs.
		`{"models":["SC"],"estimators":["mc-compiled"],"threads":[4611686018427387904],"trials":64}`,
		`{"models":["SC"],"prefix_lens":[4611686018427387904],"trials":64}`,
	} {
		resp, body := post(t, ts.URL+"/v1/sweeps", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %s: status %d: %s", spec, resp.StatusCode, body)
		}
	}
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after bad specs: status %d (%s)", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/v1/sweeps/deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d: %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/v1/sweeps/deadbeef/artifact")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact status %d: %s", resp.StatusCode, body)
	}
}

func TestSweepArtifactBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Config{SweepWorkers: 1})
	// A heavy job keeps the single worker busy; the next job stays
	// queued, so its artifact cannot be ready.
	post(t, ts.URL+"/v1/sweeps", `{"models":["SC","TSO","PSO","WO"],"threads":[4,6],"estimators":["hybrid"],"trials":400000,"seed":1}`)
	resp, body := post(t, ts.URL+"/v1/sweeps", `{"models":["SC"],"estimators":["exact"],"seed":9}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var status JobStatus
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/v1/sweeps/"+status.ID+"/artifact")
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact status %d: %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts.URL+"/v1/sweeps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Errorf("listed %d jobs, want 2", len(list.Jobs))
	}
}

// TestGracefulShutdownUnderLoad closes the server while estimate traffic
// and sweep jobs are in flight: Close must return, every outstanding
// request must complete with 200 or 503, and every job must reach a
// terminal state.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	srv, err := New(Config{EstimateWorkers: 2, SweepWorkers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A long-running sweep job plus queued followers.
	post(t, ts.URL+"/v1/sweeps", `{"models":["SC","TSO","PSO","WO"],"threads":[4,6,8],"estimators":["hybrid"],"trials":500000,"seed":2}`)
	post(t, ts.URL+"/v1/sweeps", `{"models":["SC"],"threads":[2],"estimators":["exact"],"seed":77}`)

	const loaders = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				// Distinct seeds bust the cache so real computations are
				// in flight at shutdown.
				body := fmt.Sprintf(`{"model":"WO","threads":3,"estimator":"hybrid","trials":100000,"seed":%d}`, i*100000+seq)
				resp, data := post(t, ts.URL+"/v1/estimate", body)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("status %d under shutdown: %s", resp.StatusCode, data)
					return
				}
			}
		}(i)
	}

	// Close only once a computation is in flight, so the drain is tested
	// under load rather than timed to it.
	const inflightBound = 10 * time.Second
	for deadline := time.Now().Add(inflightBound); metric(t, ts.URL, "serve_computations_inflight") < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("no computation in flight %v after the load started", inflightBound)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return under load")
	}
	close(stop)
	wg.Wait()

	// After shutdown: new computations are refused, cached bodies still
	// serve, and all jobs are terminal.
	resp, data := post(t, ts.URL+"/v1/estimate", `{"model":"SC","threads":2,"estimator":"exact","seed":424242}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown estimate status %d: %s", resp.StatusCode, data)
	}
	resp, data = get(t, ts.URL+"/v1/sweeps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) == 0 {
		t.Fatal("no jobs listed")
	}
	for _, j := range list.Jobs {
		switch j.State {
		case StateDone, StateFailed, StateCanceled:
		default:
			t.Errorf("job %s left in state %q", j.ID, j.State)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{CacheSize: -1}); err == nil {
		t.Error("negative cache size accepted")
	}
	if _, err := New(Config{SweepWorkers: -2}); err == nil {
		t.Error("negative sweep workers accepted")
	}
}

// TestLRUBasic checks the response cache's bound through the server:
// at CacheSize 2, the least recently used body is the one evicted, a
// recently used one survives, serve_cache_evictions_total counts each
// eviction, and an evicted key computes again.
func TestLRUBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 2})
	body := func(model string) string {
		return `{"model":"` + model + `","threads":2,"estimator":"exact","prefix_len":8}`
	}
	for i, step := range []struct{ model, want string }{
		{"SC", "miss"}, {"TSO", "miss"}, {"SC", "hit"},
		{"PSO", "miss"},                // evicts TSO, the least recently used
		{"SC", "hit"}, {"TSO", "miss"}, // evicts PSO
	} {
		resp, data := post(t, ts.URL+"/v1/estimate", body(step.model))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != step.want {
			t.Fatalf("request %d (%s): status %d X-Cache %q, want 200 %s: %s",
				i, step.model, resp.StatusCode, resp.Header.Get("X-Cache"), step.want, data)
		}
	}
	if got := metric(t, ts.URL, "serve_cache_evictions_total"); got != 2 {
		t.Errorf("serve_cache_evictions_total = %v, want 2", got)
	}
}

// TestLRUConcurrent drives the response cache from four goroutines
// over four keys at CacheSize 2, so lookups, computes and evictions
// interleave: every answer carries its own key's body, the cache stays
// within its bound, and each miss is exactly one computation.
func TestLRUConcurrent(t *testing.T) {
	srv, err := New(Config{CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	keys := []string{"a", "b", "c", "d"}
	var misses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				key := keys[(g+i)%len(keys)]
				rec := httptest.NewRecorder()
				srv.cached(rec, httptest.NewRequest("GET", "/v1/litmus", nil), key,
					func(context.Context) (any, error) { return map[string]string{"k": key}, nil })
				if want := "{\n  \"k\": \"" + key + "\"\n}\n"; rec.Code != http.StatusOK || rec.Body.String() != want {
					t.Errorf("key %s: status %d body %q, want 200 %q", key, rec.Code, rec.Body.String(), want)
					return
				}
				switch state := rec.Header().Get("X-Cache"); state {
				case "miss":
					misses.Add(1)
				case "hit", "dedup":
				default:
					t.Errorf("key %s: X-Cache %q", key, state)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := srv.cache.Len(); n > 2 {
		t.Errorf("cache holds %d entries, want at most 2", n)
	}
	if got, want := srv.obs.computations.Value(), misses.Load(); got != want {
		t.Errorf("computations = %d, misses answered = %d; want equal", got, want)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := get(t, ts.URL+"/v1/estimate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/estimate status %d, want 405", resp.StatusCode)
	}
}

// TestRequestBodyLimit sends a body one byte over MaxRequestBodyBytes to
// each JSON endpoint — a valid request padded with whitespace, so only
// its size is wrong — and expects 413; a normal request still succeeds
// afterwards.
func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, body := range map[string]string{
		"/v1/estimate":   `{"model":"TSO","threads":2,"estimator":"exact"}`,
		"/v1/windowdist": `{"model":"TSO","prefix_len":8}`,
		"/v1/sweeps":     `{"models":["SC"],"threads":[2],"estimators":["exact"]}`,
	} {
		body += strings.Repeat(" ", MaxRequestBodyBytes+1-len(body))
		resp, data := post(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body: status %d, want 413 (%s)", path, len(body), resp.StatusCode, data)
		}
		if !strings.Contains(string(data), `"error"`) {
			t.Errorf("%s: no error envelope: %s", path, data)
		}
	}
	resp, data := post(t, ts.URL+"/v1/estimate", `{"model":"TSO","threads":2,"estimator":"exact","seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal request after over-limit ones: status %d: %s", resp.StatusCode, data)
	}
}

// TestMissBodiesIndependentOfSlots: the same misses, computed on an
// idle server with two estimate worker slots (whose leaders borrow the
// second slot for their chunks) and on a one-slot server (which has
// none to lend), return byte-identical bodies.
func TestMissBodiesIndependentOfSlots(t *testing.T) {
	_, two := newTestServer(t, Config{EstimateWorkers: 2})
	_, one := newTestServer(t, Config{EstimateWorkers: 1})
	for _, body := range []string{
		`{"model":"TSO","threads":2,"prefix_len":24,"estimator":"mc","trials":65536,"seed":11}`,
		`{"model":"PSO","threads":3,"prefix_len":16,"estimator":"mc-compiled","trials":16384,"seed":12}`,
		`{"model":"WO","threads":4,"prefix_len":16,"estimator":"hybrid","trials":30000,"seed":13}`,
		`{"model":"TSO","threads":3,"prefix_len":16,"estimator":"hybrid","trials":65536,"seed":14,"precision":{"target_rel_err":0.02}}`,
	} {
		resp2, body2 := post(t, two.URL+"/v1/estimate", body)
		resp1, body1 := post(t, one.URL+"/v1/estimate", body)
		if resp2.StatusCode != http.StatusOK || resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d and %d: %s %s", body, resp2.StatusCode, resp1.StatusCode, body2, body1)
		}
		if c2, c1 := resp2.Header.Get("X-Cache"), resp1.Header.Get("X-Cache"); c2 != "miss" || c1 != "miss" {
			t.Errorf("%s: X-Cache %q and %q, want a miss on both servers", body, c2, c1)
		}
		if !bytes.Equal(body2, body1) {
			t.Errorf("%s: 2-slot and 1-slot bodies differ:\n%s\n%s", body, body2, body1)
		}
	}
}
