// Package core joins the paper's two random processes (§6): segment
// lengths for the shift process are drawn as the critical-window sizes of n
// independently settled copies of one random program, and the bug manifests
// exactly when some pair of shifted windows overlaps.
//
// The package offers three estimation routes with different
// accuracy/coverage trade-offs:
//
//   - NoBugBits / CompiledNoBugBits: full end-to-end Monte Carlo of the
//     joined process as a bitset batch for mc.EstimateProbabilityBits
//     (any model, any n, but needs Pr[A] large enough to sample);
//   - ExactTwoThreadPrA: exact n=2 value from the settling DP, using
//     Pr[A] = (2/3)·E[2^-Γ] (Theorem 6.2's derivation, which needs only
//     the marginal window distribution);
//   - HybridPrA: Theorem 6.1 with the joint product expectation
//     E[Π_{i=1}^{n-1} 2^-i·Γᵢ] estimated by Monte Carlo on the compiled
//     engine's products fill (ProductBatch) — this reaches the
//     e^{-Θ(n²)} regime of Theorem 6.3 that direct simulation cannot.
//     It is one mc run, to a fixed trial budget or, when the
//     mc.AdaptiveConfig carries a target, to a precision on Pr[A].
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"memreliability/internal/analytic"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/prog"
	"memreliability/internal/rng"
	"memreliability/internal/settle"
	"memreliability/internal/shift"
)

// ErrBadConfig reports an invalid experiment configuration.
var ErrBadConfig = errors.New("core: bad config")

// Config describes one joined-model experiment.
type Config struct {
	// Model is the memory consistency model under test.
	Model memmodel.Model
	// Threads is n, the number of concurrent buggy threads (≥ 2).
	Threads int
	// PrefixLen is m, the random-program prefix length. The paper's
	// analysis takes m → ∞; the finite-m truncation error decays
	// geometrically, so moderate values (64+) suffice.
	PrefixLen int
	// StoreProb is p (default normal form 1/2).
	StoreProb float64
	// SwapProb is s (default normal form 1/2).
	SwapProb float64
}

// DefaultConfig returns the paper's normal form (p = s = 1/2, m = 64) for
// the given model and thread count.
func DefaultConfig(model memmodel.Model, threads int) Config {
	return Config{
		Model:     model,
		Threads:   threads,
		PrefixLen: 64,
		StoreProb: 0.5,
		SwapProb:  0.5,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Model.Name() == "" {
		return fmt.Errorf("%w: zero-value model", ErrBadConfig)
	}
	if c.Threads < 2 {
		return fmt.Errorf("%w: threads=%d (need ≥ 2)", ErrBadConfig, c.Threads)
	}
	if c.PrefixLen < 0 {
		return fmt.Errorf("%w: prefix length %d", ErrBadConfig, c.PrefixLen)
	}
	// Positive range checks, so that NaN fails them.
	if !(0 <= c.StoreProb && c.StoreProb <= 1) {
		return fmt.Errorf("%w: store probability %v", ErrBadConfig, c.StoreProb)
	}
	if !(0 <= c.SwapProb && c.SwapProb <= 1) {
		return fmt.Errorf("%w: swap probability %v", ErrBadConfig, c.SwapProb)
	}
	return nil
}

// SampleSegments runs one iteration of the §6 generative process: draw one
// random program, settle Threads independent copies of it, and return the
// segment lengths Γ_k = γ_k + 2 of the reordered critical windows. It is
// the reference sampling routine, built on the independent prog and
// settle packages; the trial kernels replay its RNG draws exactly.
func (c Config) SampleSegments(src *rng.Source) ([]int, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("%w: nil rng source", ErrBadConfig)
	}
	sp, err := memmodel.Uniform(c.SwapProb)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opts := settle.Options{SwapProbs: sp}
	p, err := prog.Generate(prog.Params{PrefixLen: c.PrefixLen, StoreProb: c.StoreProb}, src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	segments := make([]int, c.Threads)
	for k := range segments {
		res, err := settle.Settle(p, c.Model, opts, src)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		segments[k] = res.SegmentLength()
	}
	return segments, nil
}

// ManifestTrial runs one full joined-process trial and reports whether the
// canonical data race manifested (some pair of shifted critical windows
// overlapped).
func (c Config) ManifestTrial(src *rng.Source) (bool, error) {
	segments, err := c.SampleSegments(src)
	if err != nil {
		return false, err
	}
	disjoint, err := shift.DisjointTrial(segments, src)
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	return !disjoint, nil
}

// ExactTwoThreadPrA returns the exact (up to finite-m truncation, bracketed
// in the interval) value of Pr[A] for n = 2 under the configured model:
// Pr[A] = (2/3)·E[2^-Γ], with E[2^-Γ] computed from the settling DP's
// exact window distribution, read through settle.DefaultWindowCache so
// the DP runs once per (model rows, m, p, s).
//
// The config's Threads field must be 2 and PrefixLen must be within the
// DP's exact range.
func ExactTwoThreadPrA(cfg Config) (analytic.Interval, error) {
	if err := cfg.Validate(); err != nil {
		return analytic.Interval{}, err
	}
	if cfg.Threads != 2 {
		return analytic.Interval{}, fmt.Errorf("%w: ExactTwoThreadPrA needs n=2, got %d",
			ErrBadConfig, cfg.Threads)
	}
	pmf, err := settle.DefaultWindowCache().WindowDist(cfg.Model, cfg.PrefixLen, cfg.StoreProb, cfg.SwapProb, cfg.PrefixLen)
	if err != nil {
		return analytic.Interval{}, fmt.Errorf("core: %w", err)
	}
	mgf, err := analytic.SegmentMGF(pmf)
	if err != nil {
		return analytic.Interval{}, fmt.Errorf("core: %w", err)
	}
	return analytic.TwoThreadPrA(mgf), nil
}

// ProductTrial computes one sample of Π_{i=1}^{n-1} 2^-i·Γᵢ, the Theorem
// 6.1 expectation integrand, from a fresh joined-process draw.
func (c Config) ProductTrial(src *rng.Source) (float64, error) {
	segments, err := c.SampleSegments(src)
	if err != nil {
		return 0, err
	}
	return productOf(segments), nil
}

// HybridResult is the outcome of a Theorem 6.1 hybrid estimation: the
// estimate, its product expectation, and the sampling cost and stopping
// diagnosis of the Monte Carlo run behind it.
type HybridResult struct {
	// PrA is the estimated non-manifestation probability.
	PrA float64
	// LogPrA is ln(PrA), finite even when PrA underflows float64.
	LogPrA float64
	// ProductExpectation is the Monte Carlo estimate of
	// E[Π_{i=1}^{n-1} 2^-i·Γᵢ].
	ProductExpectation float64
	// StdErr is the standard error of ProductExpectation.
	StdErr float64
	// TrialsUsed is the number of product-expectation trials consumed.
	TrialsUsed int
	// Rounds is the number of chunk-aligned sampling rounds of a run
	// with a precision target (0 for a fixed run).
	Rounds int
	// StopReason is mc.StopConverged or mc.StopBudget for a run with a
	// target, empty for a fixed run.
	StopReason mc.StopReason
}

// hybridResultFrom assembles a HybridResult from an estimated product
// expectation — the single Theorem 6.1 plug-in point, holding the
// positivity guard and the log-space recomputation.
func hybridResultFrom(cfg Config, expectation, stdErr float64) (*HybridResult, error) {
	if expectation <= 0 {
		return nil, fmt.Errorf("%w: product expectation estimate %v not positive "+
			"(increase the trial budget)", ErrBadConfig, expectation)
	}
	prA, err := shift.Theorem61(cfg.Threads, expectation)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Recompute in log space for the deep-tail regime.
	n := cfg.Threads
	c, err := shift.CorollaryC(n)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	logPrA := math.Log(c) -
		float64(n+1)*float64(n)/2*math.Ln2 +
		logFactorial(n) +
		math.Log(expectation)
	return &HybridResult{
		PrA:                prA,
		LogPrA:             logPrA,
		ProductExpectation: expectation,
		StdErr:             stdErr,
	}, nil
}

// HybridPrA estimates Pr[A] for any n by plugging a Monte Carlo estimate of
// the product expectation into the exact Theorem 6.1 formula. Unlike full
// simulation it remains accurate deep in the e^{-Θ(n²)} regime, because the
// n-dependent combinatorial factors are computed analytically.
//
// The expectation is one mc.EstimateMeanAdaptiveBatch run over
// ProductBatch: a fixed run of run.MaxTrials trials when run has no
// target, else a run to that precision on Pr[A] itself. The
// estimate is the analytic constant K(n) = Theorem61(n, 1) times the
// expectation, so a relative-error target transfers to the expectation
// unchanged, and an absolute half-width target rescales by 1/K(n)
// (division by an underflowed K yields +Inf — an absolute target
// astronomically looser than the quantity is trivially met, which is the
// mathematically correct reading).
func HybridPrA(ctx context.Context, cfg Config, run mc.AdaptiveConfig) (*HybridResult, error) {
	batch, err := cfg.ProductBatch()
	if err != nil {
		return nil, err
	}
	if run.TargetHalfWidth > 0 {
		k, err := shift.Theorem61(cfg.Threads, 1)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		run.TargetHalfWidth /= k
	}
	sum, err := mc.EstimateMeanAdaptiveBatch(ctx, run, batch)
	if err != nil {
		return nil, err
	}
	res, err := hybridResultFrom(cfg, sum.Summary.Mean(), sum.Summary.StdErr())
	if err != nil {
		return nil, err
	}
	res.TrialsUsed, res.Rounds, res.StopReason = sum.TrialsUsed(), sum.Rounds, sum.StopReason
	return res, nil
}

// logFactorial is a small local helper (ln n!).
func logFactorial(n int) float64 {
	sum := 0.0
	for i := 2; i <= n; i++ {
		sum += math.Log(float64(i))
	}
	return sum
}

// ScalingRow is one row of a Theorem 6.3 thread-scaling sweep. The sweep
// itself is orchestrated by internal/sweep (ThreadScaling), which shards
// one hybrid cell per model × n across its worker pool.
type ScalingRow struct {
	Model   string
	Threads int
	// LogPrA is ln Pr[A] from the hybrid estimator.
	LogPrA float64
	// Rate is −ln Pr[A] / n², the Theorem 6.3 normalized decay rate.
	Rate float64
	// RatioToSC is Rate divided by the same-n SC rate; Theorem 6.3 says it
	// tends to 1 for every model.
	RatioToSC float64
}
