package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memreliability/internal/estimator"
	"memreliability/internal/memmodel"
	"memreliability/internal/sweep"
)

// goldenCases pin the API's success bodies. The testdata files were
// captured from the pre-registry service (which routed every request
// through a single-cell sweep.Run), so these tests prove the estimator
// registry redesign left the wire contract byte-identical: same request,
// same bytes — estimates, intervals, request echo, field order,
// everything. The two m = 64 exact-DP bodies (golden_estimate_exact.json
// and golden_windowdist_m64.json) were captured later, from the DP that
// answers at the requested m.
var goldenCases = []struct {
	file, path, body string
}{
	{"golden_estimate_exact.json", "/v1/estimate", `{"model":"TSO","threads":2,"estimator":"exact","seed":7}`},
	{"golden_estimate_mc.json", "/v1/estimate", `{"model":"SC","threads":2,"prefix_len":12,"estimator":"mc","trials":5000,"seed":3}`},
	{"golden_estimate_hybrid.json", "/v1/estimate", `{"model":"WO","threads":3,"prefix_len":24,"estimator":"hybrid","trials":4000,"seed":11}`},
	{"golden_estimate_defaults.json", "/v1/estimate", `{"model":"PSO","trials":2000}`},
	{"golden_windowdist.json", "/v1/windowdist", `{"model":"WO","prefix_len":12,"max_gamma":6}`},
	{"golden_windowdist_m64.json", "/v1/windowdist", `{"model":"tso","prefix_len":64,"max_gamma":4,"store_prob":0.25}`},
}

func TestGoldenResponseBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range goldenCases {
		resp, data := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", tc.file, resp.StatusCode, data)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: body diverged from pre-redesign golden\ngot:\n%s\nwant:\n%s", tc.file, data, want)
		}
	}
}

// TestEndpointsMatchDirectEstimate proves the HTTP surface is a pure
// adapter: every golden request's result equals a direct
// estimator.Estimate of the equivalent Query.
func TestEndpointsMatchDirectEstimate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range goldenCases {
		resp, data := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", tc.file, resp.StatusCode, data)
		}
		var out struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}

		var query estimator.Query
		switch tc.path {
		case "/v1/estimate":
			req := defaultEstimateRequest()
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			query = req.query()
		case "/v1/windowdist":
			req := defaultWindowDistRequest()
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			query = req.query()
		}
		direct, err := estimator.Estimate(t.Context(), query)
		if err != nil {
			t.Fatalf("%s: direct estimate: %v", tc.file, err)
		}

		var served struct {
			Estimate    float64   `json:"estimate"`
			LogEstimate float64   `json:"log_estimate"`
			Lo          float64   `json:"lo"`
			Hi          float64   `json:"hi"`
			StdErr      float64   `json:"std_err"`
			EffectiveM  int       `json:"effective_m"`
			Dist        []float64 `json:"dist"`
		}
		if err := json.Unmarshal(out.Result, &served); err != nil {
			t.Fatal(err)
		}
		if served.Estimate != direct.Estimate || served.LogEstimate != direct.LogEstimate ||
			served.Lo != direct.Lo || served.Hi != direct.Hi ||
			served.StdErr != direct.StdErr || served.EffectiveM != direct.EffectiveM {
			t.Errorf("%s: served result %+v differs from direct estimate %+v", tc.file, served, direct)
		}
		if len(served.Dist) != len(direct.Dist) {
			t.Fatalf("%s: dist length %d vs %d", tc.file, len(served.Dist), len(direct.Dist))
		}
		for i := range served.Dist {
			if served.Dist[i] != direct.Dist[i] {
				t.Errorf("%s: dist[%d] = %v, want %v", tc.file, i, served.Dist[i], direct.Dist[i])
			}
		}
	}
}

// TestEstimateConfidenceLevel covers the new optional confidence knob:
// an explicit level must change the Wilson interval, echo back in the
// request, and get its own cache entry.
func TestEstimateConfidenceLevel(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	base := `{"model":"SC","threads":2,"prefix_len":12,"estimator":"mc","trials":5000,"seed":3}`
	narrow := `{"model":"SC","threads":2,"prefix_len":12,"estimator":"mc","trials":5000,"seed":3,"confidence":0.5}`

	resp, defBody := post(t, ts.URL+"/v1/estimate", base)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, defBody)
	}
	resp, narrowBody := post(t, ts.URL+"/v1/estimate", narrow)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, narrowBody)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("confidence-variant request X-Cache = %q, want miss (distinct cache entry)", resp.Header.Get("X-Cache"))
	}

	var def, nar EstimateResponse
	if err := json.Unmarshal(defBody, &def); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(narrowBody, &nar); err != nil {
		t.Fatal(err)
	}
	if nar.Request.Confidence != 0.5 {
		t.Errorf("confidence echo = %v, want 0.5", nar.Request.Confidence)
	}
	if def.Request.Confidence != 0 {
		t.Errorf("default confidence echo = %v, want omitted (0)", def.Request.Confidence)
	}
	// The result cell records the non-default level (and elides the
	// default), so its interval can never be mislabeled downstream.
	if nar.Result.Confidence != 0.5 {
		t.Errorf("result confidence = %v, want 0.5", nar.Result.Confidence)
	}
	if def.Result.Confidence != 0 {
		t.Errorf("default result confidence = %v, want omitted (0)", def.Result.Confidence)
	}
	if got := nar.Result.Notes(); !strings.Contains(got, "50% CI") {
		t.Errorf("notes %q do not label the 50%% interval", got)
	}
	if got := def.Result.Notes(); !strings.Contains(got, "99% CI") {
		t.Errorf("notes %q do not label the default 99%% interval", got)
	}
	if def.Result.Estimate != nar.Result.Estimate {
		t.Errorf("point estimate changed with confidence: %v vs %v", def.Result.Estimate, nar.Result.Estimate)
	}
	defWidth := def.Result.Hi - def.Result.Lo
	narWidth := nar.Result.Hi - nar.Result.Lo
	if narWidth >= defWidth {
		t.Errorf("50%% interval width %v not narrower than 99%% width %v", narWidth, defWidth)
	}

	resp, _ = post(t, ts.URL+"/v1/estimate", `{"model":"SC","estimator":"mc","trials":100,"confidence":1.5}`)
	if resp.StatusCode != 400 {
		t.Errorf("confidence 1.5 status %d, want 400", resp.StatusCode)
	}
}

// TestRegistryCompleteness pins the cross-surface contract: every
// registered estimator kind is a sweepable kind, every sweep kind
// resolves in the registry, and the HTTP surface accepts exactly the
// registered kinds (windowdist on its own endpoint).
func TestRegistryCompleteness(t *testing.T) {
	kinds := estimator.Kinds()
	if len(kinds) == 0 {
		t.Fatal("empty registry")
	}
	for _, k := range kinds {
		if _, ok := estimator.Lookup(k); !ok {
			t.Errorf("Kinds lists %q but Lookup cannot resolve it", k)
		}
	}

	// Sweep and registry expose the same kind set, and a spec naming any
	// registered kind passes sweep validation.
	sweepKinds := sweep.Kinds()
	if len(sweepKinds) != len(kinds) {
		t.Fatalf("sweep.Kinds() = %v, estimator.Kinds() = %v", sweepKinds, kinds)
	}
	for i, k := range kinds {
		if sweepKinds[i] != k {
			t.Errorf("sweep kind %d = %q, estimator kind %q", i, sweepKinds[i], k)
		}
		spec := sweep.DefaultSpec()
		spec.Models = []string{"SC"}
		spec.Estimators = []sweep.Kind{k}
		spec.Trials = 1
		if err := spec.Normalized().Validate(); err != nil {
			t.Errorf("registered kind %q fails sweep validation: %v", k, err)
		}
	}

	_, ts := newTestServer(t, Config{})
	for _, k := range kinds {
		var path, body string
		if k == estimator.WindowDist {
			path, body = "/v1/windowdist", `{"model":"SC","prefix_len":8,"max_gamma":4}`
		} else {
			path, body = "/v1/estimate",
				`{"model":"SC","threads":2,"prefix_len":8,"estimator":"`+string(k)+`","trials":50,"seed":1}`
		}
		resp, data := post(t, ts.URL+path, body)
		if resp.StatusCode != 200 {
			t.Errorf("registered kind %q rejected by %s: status %d: %s", k, path, resp.StatusCode, data)
		}
	}

	// The reverse direction: a kind the registry does not know must be
	// rejected, not silently skipped.
	resp, _ := post(t, ts.URL+"/v1/estimate", `{"model":"SC","estimator":"oracle"}`)
	if resp.StatusCode != 400 {
		t.Errorf("unregistered kind accepted: status %d", resp.StatusCode)
	}

	// The model registry mirrors the kind registry's contract: every
	// registered model — canonical four and variants alike — is
	// sweepable and accepted by every HTTP endpoint, with no
	// per-surface model lists anywhere.
	models := memmodel.Registered()
	if len(models) < 6 {
		t.Fatalf("model registry has %d models, want ≥ 6 (canonical four + RMO + LRO)", len(models))
	}
	for _, m := range models {
		spec := sweep.DefaultSpec()
		spec.Models = []string{m.Name()}
		spec.Trials = 1
		if err := spec.Normalized().Validate(); err != nil {
			t.Errorf("registered model %q fails sweep validation: %v", m.Name(), err)
		}
		resp, data := post(t, ts.URL+"/v1/estimate",
			`{"model":"`+m.Name()+`","threads":2,"prefix_len":8,"estimator":"mc","trials":50,"seed":1}`)
		if resp.StatusCode != 200 {
			t.Errorf("registered model %q rejected by /v1/estimate: status %d: %s", m.Name(), resp.StatusCode, data)
		}
		resp, data = post(t, ts.URL+"/v1/windowdist",
			`{"model":"`+m.Name()+`","prefix_len":8,"max_gamma":4}`)
		if resp.StatusCode != 200 {
			t.Errorf("registered model %q rejected by /v1/windowdist: status %d: %s", m.Name(), resp.StatusCode, data)
		}
	}
	resp, _ = post(t, ts.URL+"/v1/estimate", `{"model":"NOPE","threads":2,"prefix_len":8,"estimator":"mc","trials":50,"seed":1}`)
	if resp.StatusCode != 400 {
		t.Errorf("unregistered model accepted: status %d", resp.StatusCode)
	}
}
