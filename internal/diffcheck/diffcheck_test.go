package diffcheck

import (
	"context"
	"strings"
	"testing"

	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/memmodel"
	"memreliability/internal/scenariogen"
)

// TestCheckGeneratedQueries is the harness's own smoke: a few hundred
// generated scenarios across every kind and registered model must agree
// on every route.
func TestCheckGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep")
	}
	ctx := context.Background()
	g := scenariogen.New(1)
	p := scenariogen.QueryParams{MaxThreads: 3, MaxPrefix: 8, MaxTrials: 512}
	for i := 0; i < 200; i++ {
		q := g.Query(p)
		if err := Check(ctx, q); err != nil {
			t.Fatalf("scenario %d diverged: %v\nrepro query: %+v", i, err, q)
		}
	}
}

// TestCheckProducts runs hybrid queries through the products leg: fixed
// trials ending mid-chunk, and adaptive queries stopping on a half-width
// target (rescaled by K(n)), on a relative-error target, and at the
// budget — on the decision-stream segment stage and on the table-kernel
// fallback (an edge probability and a prefix past one word).
func TestCheckProducts(t *testing.T) {
	for _, tc := range []struct {
		model     string
		n, m      int
		store     float64
		trials    int
		precision *estimator.Precision
	}{
		{"WO", 3, 24, 0.5, 10000, nil},
		{"PSO", 4, 64, 0.5, 3000, nil},
		{"RMO", 5, 70, 0.5, 2000, nil},
		{"TSO", 3, 12, 1, 2000, nil},
		{"LRO", 2, 16, 0.5, 1 << 15, &estimator.Precision{TargetHalfWidth: 0.001}}, // 2 rounds
		{"TSO", 6, 32, 0.5, 1 << 15, &estimator.Precision{TargetRelErr: 0.05}},     // 1 round
		{"WO", 3, 20, 0.5, 1 << 15, &estimator.Precision{TargetRelErr: 1e-6, MaxTrials: 9000}},
	} {
		q := estimator.DefaultQuery()
		q.Kind = estimator.Hybrid
		q.Model, q.Threads, q.PrefixLen, q.StoreProb = tc.model, tc.n, tc.m, tc.store
		q.Trials, q.Precision, q.Seed = tc.trials, tc.precision, 5
		if err := CheckProducts(context.Background(), q); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

// TestCheckExactRoutesCustomModels covers the full 16-point relax-
// matrix lattice with unregistered generated models — the named models
// are only 6 of its points.
func TestCheckExactRoutesCustomModels(t *testing.T) {
	g := scenariogen.New(2)
	for i := 0; i < 40; i++ {
		cfg := core.Config{
			Model:     g.Model(),
			Threads:   2 + i%2,
			PrefixLen: 3 + i%4,
			StoreProb: g.Prob(),
			SwapProb:  g.Prob(),
		}
		if _, err := CheckExactRoutes(cfg); err != nil {
			t.Fatalf("model %s (n=%d, m=%d, p=%v, s=%v): %v",
				cfg.Model.Name(), cfg.Threads, cfg.PrefixLen, cfg.StoreProb, cfg.SwapProb, err)
		}
	}
}

// TestCheckEnginesAdaptive runs adaptive queries through all three
// engines, the reference oracle included. The cases pin each input of
// the stopping rule the oracle must rebuild: the same half-width target
// stops after two rounds at the default confidence and after one at
// 0.9; an explicit MaxTrials caps the run below Trials; and a zero
// MaxTrials defaults to Trials.
func TestCheckEnginesAdaptive(t *testing.T) {
	for _, tc := range []struct {
		precision  estimator.Precision
		confidence float64
	}{
		{estimator.Precision{TargetHalfWidth: 0.009, MaxTrials: 1 << 14}, 0},
		{estimator.Precision{TargetHalfWidth: 0.009, MaxTrials: 1 << 14}, 0.9},
		{estimator.Precision{TargetHalfWidth: 0.005, MaxTrials: 1 << 14}, 0},
		{estimator.Precision{TargetRelErr: 1e-4}, 0.9},
	} {
		q := estimator.DefaultQuery()
		q.Kind = estimator.FullMC
		q.Model = "RMO"
		q.PrefixLen = 8
		q.Trials = 3 * 8192
		q.Confidence = tc.confidence
		p := tc.precision
		q.Precision = &p
		if err := CheckEngines(context.Background(), q); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

// TestCheckWindowDistAllModels runs the window-distribution sanity (and
// the SC/TSO/WO analytic bounds) for every registered model, variants
// included.
func TestCheckWindowDistAllModels(t *testing.T) {
	for _, m := range memmodel.Registered() {
		if err := CheckWindowDist(m, 12, 6); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// TestCheckExactVsMCDetectsBias is the negative control: feeding a
// wrong "exact" value must trip the containment check — otherwise the
// harness could never catch a biased estimator.
func TestCheckExactVsMCDetectsBias(t *testing.T) {
	q := estimator.DefaultQuery()
	q.Kind = estimator.FullMC
	q.Model = "TSO"
	q.Threads = 2
	q.PrefixLen = 8
	q.Trials = 4096
	exact, err := CheckExactRoutes(core.Config{Model: memmodel.TSO(), Threads: 2, PrefixLen: 8,
		StoreProb: 0.5, SwapProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	q.StoreProb, q.SwapProb = 0.5, 0.5
	if err := CheckExactVsMC(context.Background(), q, exact); err != nil {
		t.Fatalf("true exact value flagged: %v", err)
	}
	err = CheckExactVsMC(context.Background(), q, exact+0.2)
	if err == nil || !strings.Contains(err.Error(), "containment") {
		t.Fatalf("biased exact value not flagged: %v", err)
	}
}

func TestExactFeasible(t *testing.T) {
	cases := []struct {
		n, m int
		want bool
	}{
		{2, 10, true}, {2, 12, false}, {3, 8, true}, {3, 10, false},
		{4, 6, true}, {4, 8, false}, {5, 4, false}, {2, 13, false}, {1, 4, false},
	}
	for _, tc := range cases {
		if got := ExactFeasible(tc.n, tc.m); got != tc.want {
			t.Errorf("ExactFeasible(%d, %d) = %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}
