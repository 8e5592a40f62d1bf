package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"memreliability/internal/obs"
	"memreliability/internal/rng"
)

// coinTrial is an "easy cell": a p ≈ 0.5 event.
func coinTrial(src *rng.Source) (bool, error) { return src.Bool(0.5), nil }

// rareTrial is a deep-tail cell: a p = 1/1024 event.
func rareTrial(src *rng.Source) (bool, error) { return src.Intn(1024) == 0, nil }

// Bitset forms of the two cells, through the closure adapter.
var (
	coinBatch = BitsFromTrial(coinTrial)
	rareBatch = BitsFromTrial(rareTrial)
)

func TestAdaptiveConfigValidation(t *testing.T) {
	base := AdaptiveConfig{MaxTrials: 1000, Seed: 1, Confidence: 0.99, TargetHalfWidth: 0.01}
	cases := []struct {
		name   string
		mutate func(*AdaptiveConfig)
	}{
		{"zero max trials", func(c *AdaptiveConfig) { c.MaxTrials = 0 }},
		{"negative workers", func(c *AdaptiveConfig) { c.Workers = -1 }},
		{"confidence 0", func(c *AdaptiveConfig) { c.Confidence = 0 }},
		{"confidence 1", func(c *AdaptiveConfig) { c.Confidence = 1 }},
		{"trial budget over the limit", func(c *AdaptiveConfig) { c.MaxTrials = TrialLimit + 1 }},
		{"largest int budget", func(c *AdaptiveConfig) { c.MaxTrials = math.MaxInt }},
		{"NaN half-width", func(c *AdaptiveConfig) { c.TargetHalfWidth = math.NaN() }},
		{"NaN rel err", func(c *AdaptiveConfig) { c.TargetRelErr = math.NaN() }},
		{"Inf rel err", func(c *AdaptiveConfig) { c.TargetRelErr = math.Inf(1) }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := EstimateAdaptiveBits(context.Background(), cfg, coinBatch); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if _, err := EstimateMeanAdaptiveBatch(context.Background(), cfg, uniformMean); err == nil {
			t.Errorf("%s: mean engine: no error", tc.name)
		}
	}
	if _, err := EstimateAdaptiveBits(context.Background(), base, nil); err == nil {
		t.Error("nil trial accepted")
	}
}

// TestAdaptiveWithoutTargetIsFixed pins the one-run-body contract: an
// AdaptiveConfig without a target, Confidence left unset because only a
// target reads it, is the fixed run. It returns exactly what
// EstimateProbabilityBits and EstimateMeanBatch return, at 1, 2 and 7
// workers and under a shared pool, in one round reported as Rounds 0
// with no stop reason; it traces mc.chunks then mc.merge, as the fixed
// entry points do, and moves no mc_adaptive_* counter.
func TestAdaptiveWithoutTargetIsFixed(t *testing.T) {
	ctx := context.Background()
	const trials = 5*chunkSize + 123
	rounds, converged, budget := mcAdaptiveRounds.Value(), mcAdaptiveStopConverged.Value(), mcAdaptiveStopBudget.Value()
	for _, workers := range []int{1, 2, 7} {
		for _, pool := range []*Pool{nil, NewPool(3)} {
			what := fmt.Sprintf("workers=%d pool=%v", workers, pool != nil)
			cfg := Config{Trials: trials, Workers: workers, Helpers: pool, Seed: 21}
			acfg := AdaptiveConfig{MaxTrials: trials, Workers: workers, Helpers: pool, Seed: 21}

			fixed, err := EstimateProbabilityBits(ctx, cfg, wobblyBits)
			if err != nil {
				t.Fatal(err)
			}
			bits, err := EstimateAdaptiveBits(ctx, acfg, wobblyBits)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if bits.Proportion != fixed.Proportion || bits.Rounds != 0 || bits.StopReason != "" {
				t.Errorf("%s: bits %+v in %d rounds (%q), want %+v in 0 rounds with no stop reason",
					what, bits.Proportion, bits.Rounds, bits.StopReason, fixed.Proportion)
			}

			fixedMean, err := EstimateMeanBatch(ctx, cfg, uniformMean)
			if err != nil {
				t.Fatal(err)
			}
			mean, err := EstimateMeanAdaptiveBatch(ctx, acfg, uniformMean)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !sameSummary(mean.Summary, *fixedMean) || mean.Rounds != 0 || mean.StopReason != "" {
				t.Errorf("%s: mean %v (n=%d) in %d rounds (%q), want %v (n=%d) in 0 rounds with no stop reason",
					what, mean.Summary.Mean(), mean.Summary.N(), mean.Rounds, mean.StopReason,
					fixedMean.Mean(), fixedMean.N())
			}
			if pool != nil {
				requireSlotsBack(t, pool, 3, what)
			}
		}
	}
	if mcAdaptiveRounds.Value() != rounds || mcAdaptiveStopConverged.Value() != converged ||
		mcAdaptiveStopBudget.Value() != budget {
		t.Errorf("runs without a target moved mc_adaptive_* counters: rounds +%d, converged +%d, budget +%d",
			mcAdaptiveRounds.Value()-rounds, mcAdaptiveStopConverged.Value()-converged,
			mcAdaptiveStopBudget.Value()-budget)
	}

	traced := func(run func(ctx context.Context) error) string {
		t.Helper()
		root := obs.NewTrace("run")
		if err := run(obs.WithSpan(ctx, root)); err != nil {
			t.Fatal(err)
		}
		root.End()
		return root.Structure()
	}
	want := "run\n  mc.chunks[chunks=6 trials=41083]\n  mc.merge\n"
	acfg := AdaptiveConfig{MaxTrials: trials, Seed: 21}
	for name, run := range map[string]func(ctx context.Context) error{
		"EstimateAdaptiveBits": func(ctx context.Context) error {
			_, err := EstimateAdaptiveBits(ctx, acfg, wobblyBits)
			return err
		},
		"EstimateMeanAdaptiveBatch": func(ctx context.Context) error {
			_, err := EstimateMeanAdaptiveBatch(ctx, acfg, uniformMean)
			return err
		},
		"EstimateProbabilityBits": func(ctx context.Context) error {
			_, err := EstimateProbabilityBits(ctx, Config{Trials: trials, Seed: 21}, wobblyBits)
			return err
		},
		"EstimateMeanBatch": func(ctx context.Context) error {
			_, err := EstimateMeanBatch(ctx, Config{Trials: trials, Seed: 21}, uniformMean)
			return err
		},
	} {
		if got := traced(run); got != want {
			t.Errorf("%s span tree:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestAdaptiveWorkerInvariance pins the reproducibility contract at the
// acceptance criterion's worker counts: trials-consumed, counts, round
// count, and stop reason are identical at 1, 2, and 7 workers — for a
// converging run and for a budget-capped one.
func TestAdaptiveWorkerInvariance(t *testing.T) {
	configs := []AdaptiveConfig{
		{MaxTrials: 200000, Seed: 7, Confidence: 0.99, TargetHalfWidth: 0.02},
		// Relative target on a rare event: exhausts the budget.
		{MaxTrials: 30000, Seed: 7, Confidence: 0.99, TargetRelErr: 0.01},
	}
	trials := []struct {
		name  string
		trial BatchTrialBits
	}{{"coin", coinBatch}, {"rare", rareBatch}}
	for _, tr := range trials {
		for ci, base := range configs {
			var ref *AdaptiveResult
			for _, workers := range []int{1, 2, 7} {
				cfg := base
				cfg.Workers = workers
				res, err := EstimateAdaptiveBits(context.Background(), cfg, tr.trial)
				if err != nil {
					t.Fatalf("%s/config %d workers=%d: %v", tr.name, ci, workers, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.TrialsUsed() != ref.TrialsUsed() ||
					res.Proportion.Successes() != ref.Proportion.Successes() ||
					res.Rounds != ref.Rounds || res.StopReason != ref.StopReason {
					t.Errorf("%s/config %d workers=%d diverged: trials %d vs %d, successes %d vs %d, rounds %d vs %d, reason %q vs %q",
						tr.name, ci, workers,
						res.TrialsUsed(), ref.TrialsUsed(),
						res.Proportion.Successes(), ref.Proportion.Successes(),
						res.Rounds, ref.Rounds, res.StopReason, ref.StopReason)
				}
			}
		}
	}
}

// TestAdaptiveTwoCellDemo is the acceptance criterion's 2-cell demo: the
// easy p≈0.5 cell stops with ≥ 10× fewer trials than the fixed default,
// the deep-tail cell converges too, and both meet the requested absolute
// half-width.
func TestAdaptiveTwoCellDemo(t *testing.T) {
	const fixedDefault = 200000 // memrisk's fixed -trials default
	const target = 0.02
	for _, tc := range []struct {
		name  string
		trial BatchTrialBits
	}{{"easy p=0.5", coinBatch}, {"deep tail p=2^-10", rareBatch}} {
		cfg := AdaptiveConfig{
			MaxTrials: fixedDefault, Seed: 11, Confidence: 0.99, TargetHalfWidth: target,
		}
		res, err := EstimateAdaptiveBits(context.Background(), cfg, tc.trial)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.StopReason != StopConverged {
			t.Fatalf("%s: stop reason %q, want converged", tc.name, res.StopReason)
		}
		if used := res.TrialsUsed(); used*10 > fixedDefault {
			t.Errorf("%s: %d trials used, want ≥10× fewer than the fixed default %d",
				tc.name, used, fixedDefault)
		}
		lo, hi, err := res.WilsonCI(cfg.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		if half := (hi - lo) / 2; half > target {
			t.Errorf("%s: half-width %v exceeds the requested %v", tc.name, half, target)
		}
	}
}

// TestAdaptiveBudgetExhaustion: a relative-error target on a rare event
// cannot converge inside the cap, and the result must say so — not come
// back labeled converged.
func TestAdaptiveBudgetExhaustion(t *testing.T) {
	cfg := AdaptiveConfig{MaxTrials: 20000, Seed: 3, Confidence: 0.99, TargetRelErr: 0.001}
	res, err := EstimateAdaptiveBits(context.Background(), cfg, rareBatch)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopBudget {
		t.Fatalf("stop reason %q, want budget", res.StopReason)
	}
	if res.TrialsUsed() != cfg.MaxTrials {
		t.Errorf("trials used %d, want the full budget %d", res.TrialsUsed(), cfg.MaxTrials)
	}
}

// TestAdaptiveFixedEquivalence: an adaptive run that exhausts its budget
// is bit-identical to the fixed harness at Trials = MaxTrials — for a
// chunk-aligned cap and for one with a short final chunk.
func TestAdaptiveFixedEquivalence(t *testing.T) {
	for _, maxTrials := range []int{3 * 8192, 20000} {
		cfg := AdaptiveConfig{MaxTrials: maxTrials, Seed: 5, Confidence: 0.99, TargetRelErr: 0.0001}
		adaptive, err := EstimateAdaptiveBits(context.Background(), cfg, rareBatch)
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.StopReason != StopBudget {
			t.Fatalf("max=%d: expected budget exhaustion, got %q", maxTrials, adaptive.StopReason)
		}
		fixed, err := EstimateProbabilityBits(context.Background(),
			Config{Trials: maxTrials, Seed: 5}, rareBatch)
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.Proportion.Trials() != fixed.Proportion.Trials() ||
			adaptive.Proportion.Successes() != fixed.Proportion.Successes() {
			t.Errorf("max=%d: adaptive %d/%d != fixed %d/%d", maxTrials,
				adaptive.Proportion.Successes(), adaptive.Proportion.Trials(),
				fixed.Proportion.Successes(), fixed.Proportion.Trials())
		}
	}
}

// TestAdaptiveMean covers the mean estimator: worker invariance of the
// consumed trial count and convergence on a relative target.
func TestAdaptiveMean(t *testing.T) {
	var ref *AdaptiveMeanResult
	for _, workers := range []int{1, 2, 7} {
		cfg := AdaptiveConfig{
			MaxTrials: 500000, Workers: workers, Seed: 9,
			Confidence: 0.99, TargetRelErr: 0.01,
		}
		res, err := EstimateMeanAdaptiveBatch(context.Background(), cfg, uniformMean)
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != StopConverged {
			t.Fatalf("workers=%d: stop reason %q", workers, res.StopReason)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.TrialsUsed() != ref.TrialsUsed() || res.Rounds != ref.Rounds ||
			math.Float64bits(res.Summary.Mean()) != math.Float64bits(ref.Summary.Mean()) {
			t.Errorf("workers=%d diverged: trials %d vs %d, mean %v vs %v",
				workers, res.TrialsUsed(), ref.TrialsUsed(), res.Summary.Mean(), ref.Summary.Mean())
		}
	}
	// The mean around 0.5 with stderr ≈ 0.29/√n: rel err 0.01 at 99%
	// needs ≈ 22k samples, so the run must stop well short of the cap.
	if ref.TrialsUsed() >= 500000 {
		t.Errorf("adaptive mean consumed the whole cap (%d trials)", ref.TrialsUsed())
	}
}

// TestAdaptiveCancellation: a canceled context surfaces as an error with
// partial results, exactly like the fixed harness.
func TestAdaptiveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := AdaptiveConfig{MaxTrials: 1 << 20, Seed: 1, Confidence: 0.99, TargetRelErr: 1e-9}
	if _, err := EstimateAdaptiveBits(ctx, cfg, coinBatch); err == nil {
		t.Error("canceled run returned no error")
	}
	if _, err := EstimateMeanAdaptiveBatch(ctx, cfg, uniformMean); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled mean run: err = %v, want context.Canceled", err)
	}
}
