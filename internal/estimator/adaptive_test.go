package estimator

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"memreliability/internal/mc"
)

// adaptiveQuery is an mc-kind query with a precision block over a cheap
// grid point.
func adaptiveQuery() Query {
	q := DefaultQuery()
	q.Kind = FullMC
	q.Model = "SC"
	q.PrefixLen = 12
	q.Trials = 100000
	q.Seed = 3
	q.Precision = &Precision{TargetHalfWidth: 0.02}
	return q
}

func TestPrecisionValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Query)
	}{
		{"precision on exact kind", func(q *Query) { q.Kind = Exact; q.Threads = 2 }},
		{"precision on windowdist kind", func(q *Query) { q.Kind = WindowDist }},
		{"no targets", func(q *Query) { q.Precision = &Precision{} }},
		{"negative half-width", func(q *Query) { q.Precision = &Precision{TargetHalfWidth: -0.1} }},
		{"half-width above 1", func(q *Query) { q.Precision = &Precision{TargetHalfWidth: 1.5} }},
		{"NaN half-width", func(q *Query) { q.Precision = &Precision{TargetHalfWidth: math.NaN()} }},
		{"NaN rel err", func(q *Query) { q.Precision = &Precision{TargetRelErr: math.NaN()} }},
		{"Inf rel err", func(q *Query) { q.Precision = &Precision{TargetRelErr: math.Inf(1)} }},
		{"negative max trials", func(q *Query) { q.Precision = &Precision{TargetRelErr: 0.1, MaxTrials: -1} }},
		{"max trials over the limit", func(q *Query) { q.Precision = &Precision{TargetRelErr: 0.1, MaxTrials: mc.TrialLimit + 1} }},
		{"largest int max trials", func(q *Query) { q.Precision = &Precision{TargetRelErr: 0.1, MaxTrials: math.MaxInt} }},
	}
	for _, tc := range cases {
		q := adaptiveQuery()
		tc.mutate(&q)
		if err := q.Normalized().Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := adaptiveQuery().Normalized().Validate(); err != nil {
		t.Fatalf("valid adaptive query rejected: %v", err)
	}
}

// TestPrecisionNormalization: MaxTrials defaults from Trials in exactly
// one place, the block is cloned (the caller's pointer is never
// mutated), and the canonical encodings of the spelled-out and omitted
// forms collide — which is what keys caches and content addresses.
func TestPrecisionNormalization(t *testing.T) {
	q := adaptiveQuery()
	norm := q.Normalized()
	if norm.Precision.MaxTrials != q.Trials {
		t.Errorf("normalized MaxTrials = %d, want %d", norm.Precision.MaxTrials, q.Trials)
	}
	if q.Precision.MaxTrials != 0 {
		t.Error("Normalized mutated the caller's precision block")
	}

	spelled := adaptiveQuery()
	spelled.Precision.MaxTrials = spelled.Trials
	if *spelled.Normalized().Precision != *norm.Precision {
		t.Error("spelled-out and defaulted MaxTrials normalize differently")
	}
}

// TestAdaptiveQueryWorkerInvariance: the full registry path at 1, 2, and
// 7 inner workers returns identical results — estimate, interval,
// trials-consumed, rounds, and stop reason.
func TestAdaptiveQueryWorkerInvariance(t *testing.T) {
	for _, kind := range []Kind{FullMC, Hybrid} {
		q := adaptiveQuery()
		q.Kind = kind
		if kind == Hybrid {
			// An absolute Pr[A] target, rescaled analytically onto the
			// product expectation by the hybrid route.
			q.Precision = &Precision{TargetHalfWidth: 0.02}
		}
		var ref Result
		for i, workers := range []int{1, 2, 7} {
			res, err := EstimateExec(context.Background(), q, Exec{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
			if res.StopReason == "" {
				t.Fatalf("%s: adaptive result carries no stop reason", kind)
			}
			if i == 0 {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s workers=%d diverged:\n got %+v\nwant %+v", kind, workers, res, ref)
			}
		}
	}
}

// TestAdaptiveBudgetEquivalence: when the budget is exhausted, the
// adaptive result equals the fixed-trials result of the same query at
// Trials = MaxTrials — same derived substream, same samples, same bits.
func TestAdaptiveBudgetEquivalence(t *testing.T) {
	const budgetCap = 3 * 8192 // three whole chunks: a round boundary
	q := adaptiveQuery()
	q.Precision = &Precision{TargetRelErr: 1e-6, MaxTrials: budgetCap}
	adaptive, err := Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.StopReason != StopBudget {
		t.Fatalf("stop reason %q, want budget (not silently converged)", adaptive.StopReason)
	}
	if adaptive.TrialsUsed != budgetCap {
		t.Fatalf("trials used %d, want %d", adaptive.TrialsUsed, budgetCap)
	}

	fixed := q
	fixed.Precision = nil
	fixed.Trials = budgetCap
	want, err := Estimate(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Estimate != want.Estimate || adaptive.Lo != want.Lo || adaptive.Hi != want.Hi ||
		adaptive.LogEstimate != want.LogEstimate {
		t.Errorf("budget-capped adaptive result %+v differs from fixed result %+v", adaptive, want)
	}
}

// TestAdaptiveEasyCellSavings: the estimator-level restatement of the
// acceptance demo — an easy cell under an absolute target consumes ≥10×
// fewer trials than its fixed budget while meeting the target.
func TestAdaptiveEasyCellSavings(t *testing.T) {
	q := adaptiveQuery()
	q.Trials = 200000
	res, err := Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopConverged {
		t.Fatalf("stop reason %q, want converged", res.StopReason)
	}
	if res.TrialsUsed*10 > q.Trials {
		t.Errorf("adaptive used %d trials, want ≥10× fewer than the fixed %d", res.TrialsUsed, q.Trials)
	}
	if half := (res.Hi - res.Lo) / 2; half > q.Precision.TargetHalfWidth {
		t.Errorf("half-width %v exceeds target %v", half, q.Precision.TargetHalfWidth)
	}
	if !strings.Contains(res.Notes(), "adaptive:") {
		t.Errorf("notes %q do not surface the adaptive cost", res.Notes())
	}
}
