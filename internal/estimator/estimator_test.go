package estimator_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"memreliability/internal/estimator"
	"memreliability/internal/mc"
	"memreliability/internal/obs"
	"memreliability/internal/sweep"
)

func TestDefaultQueryIsValidNormalForm(t *testing.T) {
	q := estimator.DefaultQuery()
	q.Model = "TSO"
	if err := q.Normalized().Validate(); err != nil {
		t.Fatalf("DefaultQuery invalid: %v", err)
	}
	if q.Kind != estimator.Hybrid || q.Threads != 2 || q.PrefixLen != 64 ||
		q.StoreProb != 0.5 || q.SwapProb != 0.5 || q.Trials != 50000 ||
		q.Seed != 1 || q.Confidence != estimator.DefaultConfidence || q.MaxGamma != 8 {
		t.Errorf("DefaultQuery = %+v is not the paper's normal form", q)
	}
}

func TestNormalizedCanonicalizesCaseVariants(t *testing.T) {
	q := estimator.Query{Kind: "EXACT", Model: "tso"}
	n := q.Normalized()
	if n.Kind != estimator.Exact || n.Model != "TSO" {
		t.Errorf("Normalized = %+v", n)
	}
	// Unresolvable names pass through for Validate to reject.
	bad := estimator.Query{Kind: "exact", Model: "ARM"}.Normalized()
	if bad.Model != "ARM" {
		t.Errorf("unresolvable model rewritten to %q", bad.Model)
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	base := estimator.DefaultQuery()
	base.Model = "SC"
	cases := []struct {
		name   string
		mutate func(*estimator.Query)
	}{
		{"unknown kind", func(q *estimator.Query) { q.Kind = "oracle" }},
		{"unknown model", func(q *estimator.Query) { q.Model = "ARM" }},
		{"threads too small", func(q *estimator.Query) { q.Threads = 1 }},
		{"threads over the limit", func(q *estimator.Query) { q.Threads = estimator.ThreadLimit + 1 }},
		{"largest int threads for mc-compiled", func(q *estimator.Query) { q.Kind = estimator.CompiledMC; q.Threads = math.MaxInt }},
		{"largest int threads for mc", func(q *estimator.Query) { q.Kind = estimator.FullMC; q.Threads = math.MaxInt }},
		{"zero prefix", func(q *estimator.Query) { q.PrefixLen = 0 }},
		{"prefix over the limit", func(q *estimator.Query) { q.PrefixLen = estimator.PrefixLimit + 1 }},
		{"largest int prefix for hybrid", func(q *estimator.Query) { q.Kind = estimator.Hybrid; q.PrefixLen = math.MaxInt }},
		{"zero trials for mc", func(q *estimator.Query) { q.Kind = estimator.FullMC; q.Trials = 0 }},
		{"zero trials for hybrid", func(q *estimator.Query) { q.Kind = estimator.Hybrid; q.Trials = 0 }},
		{"trials over the limit for mc", func(q *estimator.Query) { q.Kind = estimator.FullMC; q.Trials = mc.TrialLimit + 1 }},
		{"largest int trials for hybrid", func(q *estimator.Query) { q.Kind = estimator.Hybrid; q.Trials = math.MaxInt }},
		{"largest int trials for mc-compiled", func(q *estimator.Query) { q.Kind = estimator.CompiledMC; q.Trials = math.MaxInt }},
		{"store prob out of range", func(q *estimator.Query) { q.StoreProb = 1.5 }},
		{"store prob NaN", func(q *estimator.Query) { q.StoreProb = math.NaN() }},
		{"swap prob negative", func(q *estimator.Query) { q.SwapProb = -0.1 }},
		{"swap prob NaN", func(q *estimator.Query) { q.SwapProb = math.NaN() }},
		{"confidence at 1", func(q *estimator.Query) { q.Confidence = 1 }},
		{"confidence negative", func(q *estimator.Query) { q.Confidence = -0.5 }},
		{"confidence NaN", func(q *estimator.Query) { q.Confidence = math.NaN() }},
		{"negative max gamma", func(q *estimator.Query) { q.MaxGamma = -1 }},
	}
	for _, tc := range cases {
		q := base
		tc.mutate(&q)
		if err := q.Validate(); !errors.Is(err, estimator.ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", tc.name, err)
		}
	}
	// Windowdist ignores threads and trials entirely, and the exact kind
	// ignores trials.
	wd := estimator.Query{Kind: estimator.WindowDist, Model: "SC", PrefixLen: 8}
	if err := wd.Validate(); err != nil {
		t.Errorf("windowdist with zero threads/trials rejected: %v", err)
	}
	wd.Trials = math.MaxInt
	if err := wd.Validate(); err != nil {
		t.Errorf("windowdist with unused huge trials rejected: %v", err)
	}
	exact := base
	exact.Kind, exact.Trials = estimator.Exact, math.MaxInt
	if err := exact.Validate(); err != nil {
		t.Errorf("exact with unused huge trials rejected: %v", err)
	}
	// The limits themselves are valid sizes (validated only, never run).
	atLimit := base
	atLimit.Threads, atLimit.PrefixLen = estimator.ThreadLimit, estimator.PrefixLimit
	if err := atLimit.Validate(); err != nil {
		t.Errorf("threads and prefix at their limits rejected: %v", err)
	}
	// The exact kinds clamp the prefix, and exact skips every n but 2, so
	// neither limit applies to them.
	wd.Threads, wd.PrefixLen = math.MaxInt, math.MaxInt
	if err := wd.Validate(); err != nil {
		t.Errorf("windowdist with huge threads and prefix rejected: %v", err)
	}
	exact.Threads, exact.PrefixLen = math.MaxInt, math.MaxInt
	if err := exact.Validate(); err != nil {
		t.Errorf("exact with huge threads and prefix rejected: %v", err)
	}
}

func TestExactMatchesTheorem62(t *testing.T) {
	q := estimator.DefaultQuery()
	q.Kind = estimator.Exact
	q.Model = "SC"
	q.PrefixLen = 16
	res, err := estimator.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-1.0/6.0) > 1e-6 {
		t.Errorf("SC exact = %v, want 1/6", res.Estimate)
	}
	if res.Lo > res.Estimate || res.Estimate > res.Hi {
		t.Errorf("estimate %v outside [%v, %v]", res.Estimate, res.Lo, res.Hi)
	}
}

func TestExactSkipsWrongThreadCount(t *testing.T) {
	q := estimator.DefaultQuery()
	q.Kind = estimator.Exact
	q.Model = "SC"
	q.Threads = 4
	res, err := estimator.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped || res.Note == "" {
		t.Errorf("exact at n=4 not skipped: %+v", res)
	}
}

func TestExactClampsPrefix(t *testing.T) {
	q := estimator.DefaultQuery()
	q.Kind = estimator.Exact
	q.Model = "TSO"
	q.PrefixLen = 64
	res, err := estimator.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveM != estimator.ExactPrefixCap {
		t.Errorf("EffectiveM = %d, want %d", res.EffectiveM, estimator.ExactPrefixCap)
	}
	if res.Note == "" {
		t.Error("clamp not recorded in Note")
	}
}

func TestWindowDistClampsSupportAndPrefix(t *testing.T) {
	q := estimator.DefaultQuery()
	q.Kind = estimator.WindowDist
	q.Model = "WO"
	q.PrefixLen = 64
	q.MaxGamma = 40
	res, err := estimator.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveM != estimator.ExactPrefixCap {
		t.Errorf("EffectiveM = %d, want %d", res.EffectiveM, estimator.ExactPrefixCap)
	}
	if len(res.Dist) != estimator.ExactPrefixCap+1 {
		t.Errorf("dist length %d, want %d (max gamma clamped to effective m)",
			len(res.Dist), estimator.ExactPrefixCap+1)
	}
	if math.Abs(res.Dist[0]-2.0/3.0) > 1e-3 {
		t.Errorf("WO Pr[B_0] = %v, want ≈ 2/3", res.Dist[0])
	}
}

func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	q := estimator.DefaultQuery()
	q.Model = "WO"
	q.Threads = 3
	q.PrefixLen = 24
	q.Trials = 3000
	q.Seed = 9
	ctx := context.Background()
	serial, err := estimator.EstimateExec(ctx, q, estimator.Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := estimator.EstimateExec(ctx, q, estimator.Exec{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("results differ across worker budgets:\n%+v\n%+v", serial, parallel)
	}
}

func TestEstimateHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := estimator.DefaultQuery()
	q.Model = "SC"
	q.Trials = 5_000_000
	if _, err := estimator.Estimate(ctx, q); err == nil {
		t.Error("canceled estimate succeeded")
	}
}

// TestBatchMatchesSingleEstimates is the batch-equivalence contract:
// every result of a mixed-kind batch is identical to a lone Estimate of
// the same query, at any worker budget, with progress observing every
// completion exactly once.
func TestBatchMatchesSingleEstimates(t *testing.T) {
	ctx := context.Background()
	var queries []estimator.Query
	for _, kind := range estimator.Kinds() {
		for _, model := range []string{"SC", "TSO", "WO"} {
			q := estimator.DefaultQuery()
			q.Kind = kind
			q.Model = model
			q.PrefixLen = 12
			q.Trials = 500
			q.Seed = uint64(len(queries)) + 1
			queries = append(queries, q)
		}
	}

	seen := make(map[int]int)
	batch, err := estimator.EstimateBatch(ctx, queries, estimator.BatchOptions{
		Workers:  4,
		Progress: func(i int, r estimator.Result) { seen[i]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("got %d results, want %d", len(batch), len(queries))
	}
	if len(seen) != len(queries) {
		t.Errorf("progress saw %d distinct queries, want %d", len(seen), len(queries))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("progress called %d times for query %d", n, i)
		}
	}

	serial, err := estimator.EstimateBatch(ctx, queries, estimator.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		single, err := estimator.Estimate(ctx, queries[i])
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(batch[i], single) {
			t.Errorf("query %d: batch result %+v differs from single %+v", i, batch[i], single)
		}
		if !reflect.DeepEqual(serial[i], single) {
			t.Errorf("query %d: serial batch result differs from single", i)
		}
	}
}

func TestBatchRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	if _, err := estimator.EstimateBatch(ctx, nil, estimator.BatchOptions{}); !errors.Is(err, estimator.ErrBadQuery) {
		t.Errorf("empty batch err = %v", err)
	}
	bad := estimator.DefaultQuery()
	bad.Model = "ARM"
	if _, err := estimator.EstimateBatch(ctx, []estimator.Query{bad}, estimator.BatchOptions{}); !errors.Is(err, estimator.ErrBadQuery) {
		t.Errorf("bad query err = %v", err)
	}
}

// TestFanOutPrefersRootCause pins FanOut's error rule: one item fails,
// the items beside it see the cancellation that failure causes, and the
// caller gets the failure, not one of the cancellations.
func TestFanOutPrefersRootCause(t *testing.T) {
	sentinel := errors.New("root cause")
	const n = 4
	for run := 0; run < 10; run++ {
		err := estimator.FanOut(context.Background(), n, n,
			func(parent *obs.Span, idx int) *obs.Span { return parent.Child("item") },
			func(ctx context.Context, idx int, _ *mc.Pool) error {
				if idx == n-1 {
					return sentinel
				}
				<-ctx.Done() // held until the last item's failure cancels the run
				return fmt.Errorf("item %d: %w", idx, ctx.Err())
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("run %d: err = %v, want the root-cause failure", run, err)
		}
	}
}

// TestSweepCellsMatchRegistryDispatch proves the sweep engine is a pure
// orchestrator: every artifact cell equals a direct registry dispatch of
// the cell's query on the cell's derived seed.
func TestSweepCellsMatchRegistryDispatch(t *testing.T) {
	ctx := context.Background()
	spec := sweep.DefaultSpec()
	spec.Models = []string{"SC", "WO"}
	spec.Threads = []int{2, 4}
	spec.PrefixLens = []int{12}
	spec.Estimators = []sweep.Kind{sweep.Exact, sweep.FullMC, sweep.Hybrid, sweep.WindowDist}
	spec.Trials = 400
	spec.Seed = 7

	art, err := sweep.Run(ctx, spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	norm := spec.Normalized()
	cells := norm.Expand()
	seeds := estimator.DeriveSeeds(norm.Seed, len(cells))
	if len(art.Cells) != len(cells) {
		t.Fatalf("artifact has %d cells, grid has %d", len(art.Cells), len(cells))
	}
	for i, cell := range cells {
		direct, err := estimator.Run(ctx, norm.Query(cell), seeds[i], estimator.Exec{})
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		got := art.Cells[i]
		if got.Skipped != direct.Skipped || got.Note != direct.Note ||
			got.EffectiveM != direct.EffectiveM || got.Estimate != direct.Estimate ||
			got.LogEstimate != direct.LogEstimate || got.Lo != direct.Lo ||
			got.Hi != direct.Hi || got.StdErr != direct.StdErr ||
			!reflect.DeepEqual(got.Dist, direct.Dist) {
			t.Errorf("cell %d: artifact %+v differs from registry dispatch %+v", i, got, direct)
		}
	}
}

func TestKindsCanonicalOrder(t *testing.T) {
	kinds := estimator.Kinds()
	want := []estimator.Kind{estimator.Exact, estimator.FullMC, estimator.Hybrid, estimator.WindowDist}
	if len(kinds) < len(want) {
		t.Fatalf("Kinds = %v, missing builtins", kinds)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Errorf("Kinds[%d] = %q, want %q", i, kinds[i], k)
		}
	}
	for _, k := range kinds {
		if !k.Valid() {
			t.Errorf("listed kind %q not Valid", k)
		}
		if k.DisplayName() == "" {
			t.Errorf("kind %q has empty display name", k)
		}
	}
	if estimator.Kind("oracle").Valid() {
		t.Error("unregistered kind reported Valid")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	e, _ := estimator.Lookup(estimator.Exact)
	estimator.Register(e)
}

func TestDeriveSeedsIsStable(t *testing.T) {
	a := estimator.DeriveSeeds(42, 4)
	b := estimator.DeriveSeeds(42, 4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("derivation not deterministic: %v vs %v", a, b)
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Errorf("suspiciously constant seeds: %v", a)
	}
	// Prefix property: deriving fewer seeds yields a prefix, so cell
	// seeds do not depend on grid size beyond their own index.
	p := estimator.DeriveSeeds(42, 2)
	if p[0] != a[0] || p[1] != a[1] {
		t.Errorf("DeriveSeeds(42, 2) = %v is not a prefix of %v", p, a)
	}
}

// TestCompiledMCMatchesFullMC is the query-level differential gate: the
// same query under mc and mc-compiled must produce bit-identical results
// (seed derivation is kind-independent and the engines are draw-for-draw
// identical), for both fixed-trials and adaptive-precision modes.
func TestCompiledMCMatchesFullMC(t *testing.T) {
	base := estimator.DefaultQuery()
	base.Model = "tso"
	base.PrefixLen = 16
	base.Trials = 4096
	adaptive := base
	adaptive.Precision = &estimator.Precision{TargetHalfWidth: 0.02, MaxTrials: 1 << 15}
	for name, q := range map[string]estimator.Query{"fixed": base, "adaptive": adaptive} {
		mcQ, compiledQ := q, q
		mcQ.Kind = estimator.FullMC
		compiledQ.Kind = estimator.CompiledMC
		ref, err := estimator.Estimate(context.Background(), mcQ)
		if err != nil {
			t.Fatal(err)
		}
		got, err := estimator.Estimate(context.Background(), compiledQ)
		if err != nil {
			t.Fatal(err)
		}
		// Everything but the kind label must match exactly.
		ref.Kind = estimator.CompiledMC
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: mc-compiled diverged from mc:\n got %+v\nwant %+v", name, got, ref)
		}
	}
}

// TestBatchByteIdenticalAcrossPoolBudgets: a batch narrower than the
// larger budgets, of queries spanning several chunks, fixed and
// adaptive, encodes to the same bytes at budgets 1, 2 and 4 — however
// many chunks the queries borrowed slots for.
func TestBatchByteIdenticalAcrossPoolBudgets(t *testing.T) {
	var queries []estimator.Query
	for i, kind := range []estimator.Kind{estimator.FullMC, estimator.Hybrid, estimator.CompiledMC} {
		q := estimator.DefaultQuery()
		q.Kind, q.Model, q.Threads, q.PrefixLen = kind, "PSO", 3, 16
		q.Trials, q.Seed = 40000, uint64(30+i)
		queries = append(queries, q)
	}
	adaptive := queries[1]
	adaptive.Precision = &estimator.Precision{TargetRelErr: 0.02}
	queries = append(queries, adaptive)

	var want []byte
	for _, budget := range []int{1, 2, 4} {
		results, err := estimator.EstimateBatch(context.Background(), queries, estimator.BatchOptions{Workers: budget})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("results at budget %d differ from budget 1's:\n%s\n%s", budget, got, want)
		}
	}
}
