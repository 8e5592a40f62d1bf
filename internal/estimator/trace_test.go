package estimator_test

import (
	"context"
	"strings"
	"testing"

	"memreliability/internal/estimator"
	"memreliability/internal/obs"
)

func runTraced(t *testing.T, q estimator.Query, workers int) string {
	t.Helper()
	root := obs.NewTrace("estimate")
	ctx := obs.WithSpan(context.Background(), root)
	if _, err := estimator.EstimateExec(ctx, q, estimator.Exec{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	root.End()
	return root.Structure()
}

// TestSpanTreeDeterministic is the tentpole's span-determinism
// guarantee: the same (query, seed) yields the identical span structure
// — names, nesting, attributes — run to run and at any worker count,
// because spans are created only at sequential barriers. The inputs are
// a small adaptive full-MC query, the span-richest path (per-round
// children under the dispatch span), and a fixed query of the default
// kind, hybrid, whose mean run shows its chunk sweep and merge.
func TestSpanTreeDeterministic(t *testing.T) {
	adaptive := estimator.DefaultQuery()
	adaptive.Model, adaptive.Kind, adaptive.Trials, adaptive.Seed = "TSO", estimator.FullMC, 40000, 7
	adaptive.Precision = &estimator.Precision{TargetHalfWidth: 1e-3}
	fixed := estimator.DefaultQuery()
	fixed.Model, fixed.Trials, fixed.Seed = "TSO", 40000, 7
	for _, tc := range []struct {
		q     estimator.Query
		spans []string
	}{
		{adaptive, []string{"estimator.dispatch[kind=mc]", "mc.round["}},
		{fixed, []string{"estimator.dispatch[kind=hybrid]", "mc.chunks[chunks=5 trials=40000]", "mc.merge"}},
	} {
		first := runTraced(t, tc.q, 1)
		for _, span := range tc.spans {
			if !strings.Contains(first, span) {
				t.Fatalf("%s trace missing %s:\n%s", tc.q.Kind, span, first)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			if got := runTraced(t, tc.q, workers); got != first {
				t.Errorf("%s span structure differs at workers=%d:\n%s\nwant:\n%s", tc.q.Kind, workers, got, first)
			}
		}
	}
}

// TestUntracedContextUnchanged pins the zero-cost disabled path: with no
// span attached, estimation runs and the context carries no span.
func TestUntracedContextUnchanged(t *testing.T) {
	ctx := context.Background()
	q := estimator.DefaultQuery()
	q.Model = "TSO"
	q.Trials = 2000
	if _, err := estimator.Estimate(ctx, q); err != nil {
		t.Fatal(err)
	}
	if obs.SpanFrom(ctx) != nil {
		t.Fatal("untraced context acquired a span")
	}
}

// TestBatchSpanOrderDeterministic asserts the batch feed loop creates
// per-query spans in index order regardless of worker count.
func TestBatchSpanOrderDeterministic(t *testing.T) {
	queries := make([]estimator.Query, 4)
	for i := range queries {
		q := estimator.DefaultQuery()
		q.Model = "TSO"
		q.Trials = 2000
		q.Seed = uint64(i + 1)
		queries[i] = q
	}
	run := func(workers int) string {
		root := obs.NewTrace("batch")
		ctx := obs.WithSpan(context.Background(), root)
		if _, err := estimator.EstimateBatch(ctx, queries, estimator.BatchOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		root.End()
		return root.Structure()
	}
	first := run(1)
	if !strings.Contains(first, "estimate[index=0 kind=hybrid]") {
		t.Fatalf("missing indexed estimate span:\n%s", first)
	}
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != first {
			t.Errorf("batch span structure differs at workers=%d:\n%s\nwant:\n%s", workers, got, first)
		}
	}
}
