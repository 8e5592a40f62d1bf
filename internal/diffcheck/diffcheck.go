// Package diffcheck is the differential validation harness: one query,
// every independent route to the same answer, cross-checked. It is the
// shared core of cmd/memdiff (the randomized sweep) and the
// FuzzDifferentialEstimate fuzz target, so a divergence found by either
// replays through the other.
//
// The routes and their agreement contracts:
//
//   - mc vs mc-compiled vs the reference oracle
//     (core.Config.ReferenceNoBugBits, built on the independent settle
//     and shift packages), fixed-trials and adaptive: estimator seed
//     derivation is kind-independent, so these must be BIT-identical —
//     no tolerance at all.
//   - hybrid vs a closure reference: the hybrid kind's product
//     expectation (the compiled engine's products fill,
//     core.Config.ProductBatch) against the ProductTrial closure, built
//     on the independent prog and settle packages, looped on the same
//     substream under the same harness calls, fixed-trials and adaptive:
//     BIT-identical expectation, standard error, trials and rounds.
//   - ExactSmallPrA vs ExactSmallPrAViaTheorem61: two independent exact
//     enumerations (joint DP vs Theorem 6.1 factorization) that must
//     agree to float rounding.
//   - ExactTwoThreadPrA: the n=2 settling-DP interval must contain the
//     enumerated value.
//   - exact vs Monte Carlo: the MC success count must be statistically
//     consistent with the exact value under an exact binomial tail test
//     at ContainmentAlpha. (A Wilson interval is the wrong tool here:
//     its coverage collapses in the deep-rare-event regime — one lucky
//     success among thousands of trials excludes a true Pr[A] of 1e-5
//     at any z. The binomial tails are exact in every regime.) The
//     threshold is set so extreme that a flagged query is a bug, not a
//     sampling fluke.
//   - settle.ExactWindowDist vs the paper's closed-form window bounds
//     (SC, TSO, WO at the normal form p = s = 1/2), plus PMF sanity for
//     every model.
package diffcheck

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"memreliability/internal/analytic"
	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
	"memreliability/internal/settle"
	"memreliability/internal/shift"
)

// ContainmentAlpha is the per-side significance threshold of the
// exact-vs-MC binomial containment test. At 10⁴ fuzz scenarios the
// expected false-positive count is ~10⁻⁵, so the harness stays
// deterministic-flake-free while still catching any systematic
// estimator bias.
const ContainmentAlpha = 1e-9

// Enumeration limits of the exact oracles (core's full enumeration).
const (
	maxExactThreads = 4
	maxExactPrefix  = 12
)

// maxWindowDistPrefix mirrors settle's exact-DP prefix bound.
const maxWindowDistPrefix = 18

// exactCostLimit bounds the enumeration work Check will spend per
// query: 2^m programs × (m+1)^n window tuples. 2^18 keeps the exact
// routes under ~50ms on commodity hardware (n=4 m=10 alone costs ~1s),
// so fuzz inputs and sweep queries stay cheap while n=2 still covers
// m ≤ 10, n=3 m ≤ 8, and n=4 m ≤ 6.
const exactCostLimit = 1 << 18

// ExactFeasible reports whether Check will run the exact-enumeration
// cross-checks for a (threads, prefix) shape: within the oracles'
// domain and under the per-query enumeration budget.
func ExactFeasible(threads, prefix int) bool {
	if threads < 2 || threads > maxExactThreads || prefix < 1 || prefix > maxExactPrefix {
		return false
	}
	cost := math.Pow(2, float64(prefix)) * math.Pow(float64(prefix+1), float64(threads))
	return cost <= exactCostLimit
}

// Check runs every cross-check applicable to the query: engine
// bit-identity for trial-consuming kinds (the bits engines for mc and
// mc-compiled, the products fill for hybrid), the exact-route agreements
// and exact-vs-MC containment when the query is within enumeration
// range, and the window-distribution bounds at the analytic normal
// form. A nil return means every applicable route agreed.
func Check(ctx context.Context, q estimator.Query) error {
	q = q.Normalized()
	if err := q.Validate(); err != nil {
		return fmt.Errorf("diffcheck: %w", err)
	}
	model, err := memmodel.ByName(q.Model)
	if err != nil {
		return err
	}
	if q.Kind == estimator.FullMC || q.Kind == estimator.CompiledMC {
		if err := CheckEngines(ctx, q); err != nil {
			return err
		}
	}
	if q.Kind == estimator.Hybrid {
		if err := CheckProducts(ctx, q); err != nil {
			return err
		}
	}
	cfg := core.Config{Model: model, Threads: q.Threads, PrefixLen: q.PrefixLen,
		StoreProb: q.StoreProb, SwapProb: q.SwapProb}
	if ExactFeasible(q.Threads, q.PrefixLen) {
		exact, err := CheckExactRoutes(cfg)
		if err != nil {
			return err
		}
		if q.Kind == estimator.FullMC || q.Kind == estimator.CompiledMC {
			if err := CheckExactVsMC(ctx, q, exact); err != nil {
				return err
			}
		}
	}
	if q.StoreProb == 0.5 && q.SwapProb == 0.5 {
		// The settling DP's exact range is m ≤ 18; longer queries still
		// validate the distribution, at the clamped prefix.
		m := q.PrefixLen
		if m > maxWindowDistPrefix {
			m = maxWindowDistPrefix
		}
		maxGamma := q.MaxGamma
		if maxGamma > m {
			maxGamma = m
		}
		if err := CheckWindowDist(model, m, maxGamma); err != nil {
			return err
		}
	}
	return nil
}

// CheckEngines requires the table-driven mc kernel, the query-compiled
// kernel, and the reference oracle to produce bit-identical results on
// the query, fixed-trials or adaptive. The oracle runs on the substream
// the estimator derives, under the run the estimator builds
// (stoppingRule), so it must match the engines' estimate, trials used
// and rounds exactly. Estimator seed derivation is kind-independent, so
// there is no tolerance: any difference is a bug.
func CheckEngines(ctx context.Context, q estimator.Query) error {
	q = q.Normalized()
	q.Kind = estimator.FullMC
	ref, err := estimator.Estimate(ctx, q)
	if err != nil {
		return fmt.Errorf("mc: %w", err)
	}
	q.Kind = estimator.CompiledMC
	compiled, err := estimator.Estimate(ctx, q)
	if err != nil {
		return fmt.Errorf("mc-compiled: %w", err)
	}
	ref.Kind = estimator.CompiledMC // the only field allowed to differ
	if !reflect.DeepEqual(ref, compiled) {
		return fmt.Errorf("mc-compiled diverged from mc:\n  mc:          %+v\n  mc-compiled: %+v", ref, compiled)
	}

	model, err := memmodel.ByName(q.Model)
	if err != nil {
		return err
	}
	cfg := core.Config{Model: model, Threads: q.Threads, PrefixLen: q.PrefixLen,
		StoreProb: q.StoreProb, SwapProb: q.SwapProb}
	batch, err := cfg.ReferenceNoBugBits()
	if err != nil {
		return err
	}
	out, err := mc.EstimateAdaptiveBits(ctx, stoppingRule(q, estimator.DeriveSeeds(q.Seed, 1)[0]), batch)
	if err != nil {
		return fmt.Errorf("reference oracle: %w", err)
	}
	if out.Estimate() != ref.Estimate || out.TrialsUsed() != ref.TrialsUsed || out.Rounds != ref.Rounds {
		return fmt.Errorf("reference oracle diverged: oracle %v (trials %d, rounds %d), engines %v (trials %d, rounds %d)",
			out.Estimate(), out.TrialsUsed(), out.Rounds, ref.Estimate, ref.TrialsUsed, ref.Rounds)
	}
	return nil
}

// stoppingRule is the harness run the estimator builds for a normalized
// query on substream seed sub: a fixed run of Trials trials, or for an
// adaptive query the normalized MaxTrials, both targets and the query's
// confidence.
func stoppingRule(q estimator.Query, sub uint64) mc.AdaptiveConfig {
	p := q.Precision
	if p == nil {
		return mc.AdaptiveConfig{MaxTrials: q.Trials, Seed: sub}
	}
	confidence := q.Confidence
	if confidence == 0 {
		confidence = estimator.DefaultConfidence
	}
	return mc.AdaptiveConfig{MaxTrials: p.MaxTrials, Seed: sub,
		TargetHalfWidth: p.TargetHalfWidth, TargetRelErr: p.TargetRelErr, Confidence: confidence}
}

// CheckProducts requires the hybrid estimator's product expectation to
// match a reference that loops the ProductTrial closure — built on the
// independent prog and settle packages — on the substream the estimator
// derives, through the same harness entry point,
// mc.EstimateMeanAdaptiveBatch, under the estimator's stopping rule
// (stoppingRule), its half-width target rescaled by K(n) as
// core.HybridPrA does. The expectation, its standard error, the trials
// used and the rounds must all be bit-identical: any difference is a bug
// in the products engine.
func CheckProducts(ctx context.Context, q estimator.Query) error {
	q = q.Normalized()
	q.Kind = estimator.Hybrid
	res, err := estimator.Estimate(ctx, q)
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	model, err := memmodel.ByName(q.Model)
	if err != nil {
		return err
	}
	cfg := core.Config{Model: model, Threads: q.Threads, PrefixLen: q.PrefixLen,
		StoreProb: q.StoreProb, SwapProb: q.SwapProb}
	batch := mc.BatchMean(func(src *rng.Source, out []float64) error {
		for i := range out {
			v, err := cfg.ProductTrial(src)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	})
	rule := stoppingRule(q, estimator.DeriveSeeds(q.Seed, 1)[0])
	if rule.TargetHalfWidth > 0 {
		k, err := shift.Theorem61(q.Threads, 1)
		if err != nil {
			return err
		}
		rule.TargetHalfWidth /= k
	}
	out, err := mc.EstimateMeanAdaptiveBatch(ctx, rule, batch)
	if err != nil {
		return fmt.Errorf("products reference: %w", err)
	}
	mean, stdErr, trials, rounds := out.Summary.Mean(), out.Summary.StdErr(), out.TrialsUsed(), out.Rounds
	if mean != res.ProductExpectation || stdErr != res.StdErr || trials != res.TrialsUsed || rounds != res.Rounds {
		return fmt.Errorf("hybrid products diverged from the closure reference: reference %v ± %v (trials %d, rounds %d), "+
			"hybrid %v ± %v (trials %d, rounds %d)", mean, stdErr, trials, rounds,
			res.ProductExpectation, res.StdErr, res.TrialsUsed, res.Rounds)
	}
	return nil
}

// CheckExactRoutes cross-checks the independent exact oracles on a
// config within enumeration range (n ≤ 4, m ≤ 12) and returns the
// agreed exact Pr[A]. The config's model may be any relax matrix —
// registered or not — which is how the generator's 16-point model
// lattice is covered.
func CheckExactRoutes(cfg core.Config) (float64, error) {
	direct, err := core.ExactSmallPrA(cfg)
	if err != nil {
		return 0, fmt.Errorf("exact enumeration: %w", err)
	}
	via61, err := core.ExactSmallPrAViaTheorem61(cfg)
	if err != nil {
		return 0, fmt.Errorf("exact via Theorem 6.1: %w", err)
	}
	if math.Abs(direct-via61) > 1e-9*math.Max(1, math.Abs(direct)) {
		return 0, fmt.Errorf("exact routes diverged: enumeration %v vs Theorem 6.1 %v (Δ=%v)",
			direct, via61, direct-via61)
	}
	if cfg.Threads == 2 {
		iv, err := core.ExactTwoThreadPrA(cfg)
		if err != nil {
			return 0, fmt.Errorf("exact two-thread DP: %w", err)
		}
		if direct < iv.Lo-1e-9 || direct > iv.Hi+1e-9 {
			return 0, fmt.Errorf("enumerated Pr[A] = %v outside the n=2 DP interval [%v, %v]",
				direct, iv.Lo, iv.Hi)
		}
	}
	return direct, nil
}

// CheckExactVsMC runs the query's Monte Carlo route (fixed trials) and
// requires the observed success count to be consistent with the exact
// Pr[A]: both binomial tail probabilities P(X ≤ k) and P(X ≥ k) under
// Binomial(trials, exact) must exceed ContainmentAlpha. Unlike a
// normal-approximation interval, the test is exact for every (k,
// trials, p) — including the rare-event corner where k is 0 or 1.
func CheckExactVsMC(ctx context.Context, q estimator.Query, exact float64) error {
	q.Kind = estimator.FullMC
	q.Precision = nil
	res, err := estimator.Estimate(ctx, q)
	if err != nil {
		return fmt.Errorf("mc: %w", err)
	}
	// Recover the success count from the estimate: trials·p̂ is integral
	// up to float rounding.
	successes := int(math.Round(res.Estimate * float64(q.Trials)))
	below := binomTail(successes, q.Trials, exact, false)
	above := binomTail(successes, q.Trials, exact, true)
	if below < ContainmentAlpha || above < ContainmentAlpha {
		return fmt.Errorf("MC containment violated: %d/%d successes vs exact Pr[A] = %v "+
			"(binomial tails P[X≤k] = %.3g, P[X≥k] = %.3g, alpha %g)",
			successes, q.Trials, exact, below, above, ContainmentAlpha)
	}
	return nil
}

// binomTail returns P(X ≤ k) (upper = false) or P(X ≥ k) (upper =
// true) for X ~ Binomial(n, p), by direct pmf summation in log space.
// n is at most the fuzz trial cap, so the sum is cheap and exact to
// float rounding — no normal approximation anywhere.
func binomTail(k, n int, p float64, upper bool) float64 {
	switch {
	case upper && k <= 0, !upper && k >= n:
		return 1
	case upper && k > n, !upper && k < 0:
		return 0
	case p <= 0:
		if upper { // k ≥ 1 here: P(X ≥ k) with X ≡ 0
			return 0
		}
		return 1 // k < n here, but X ≡ 0 ≤ k always for k ≥ 0
	case p >= 1:
		if upper {
			return 1 // X ≡ n ≥ k always for k ≤ n
		}
		return 0 // k < n here: P(X ≤ k) with X ≡ n
	}
	lo, hi := 0, k
	if upper {
		lo, hi = k, n
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	logP, log1mP := math.Log(p), math.Log1p(-p)
	sum := 0.0
	for i := lo; i <= hi; i++ {
		lgK, _ := math.Lgamma(float64(i + 1))
		lgNK, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgK - lgNK + float64(i)*logP + float64(n-i)*log1mP)
	}
	return math.Min(sum, 1)
}

// CheckWindowDist validates the exact window distribution: every mass
// is a probability, the tabulated support sums to ≤ 1, and — for the
// models with closed forms in the paper (SC, TSO, WO) — each Pr[B_γ]
// respects the Theorem 4.1 bounds up to finite-m truncation. The
// distribution is evaluated at the paper's normal form p = s = 1/2.
func CheckWindowDist(model memmodel.Model, m, maxGamma int) error {
	pmf, err := settle.ExactWindowDist(model, m, 0.5, 0.5, maxGamma)
	if err != nil {
		return fmt.Errorf("window dist: %w", err)
	}
	total := 0.0
	for gamma := 0; gamma <= maxGamma; gamma++ {
		p := pmf.At(gamma)
		if p < -1e-12 || p > 1+1e-12 {
			return fmt.Errorf("%s: Pr[B_%d] = %v is not a probability", model.Name(), gamma, p)
		}
		total += p
	}
	if total > 1+1e-9 {
		return fmt.Errorf("%s: window masses sum to %v > 1", model.Name(), total)
	}
	switch model.Name() {
	case "SC", "TSO", "WO":
	default:
		return nil // no closed form (paper footnote 4 for PSO; variants likewise)
	}
	for gamma := 0; gamma <= maxGamma; gamma++ {
		iv, err := analytic.WindowInterval(model.Name(), gamma)
		if err != nil {
			return err
		}
		// The DP truncates the settling walk at m instructions; the
		// closed forms are the m → ∞ limits. O(2^-(m-γ)) slack covers
		// the truncated tail.
		slack := math.Pow(2, -float64(m-gamma))
		got := pmf.At(gamma)
		if got < iv.Lo-slack || got > iv.Hi+slack {
			return fmt.Errorf("%s: Pr[B_%d] = %v outside analytic bounds [%v, %v] (m=%d, slack %v)",
				model.Name(), gamma, got, iv.Lo, iv.Hi, m, slack)
		}
	}
	return nil
}
