package mc

import (
	"context"
	"fmt"
	"math"

	"memreliability/internal/rng"
	"memreliability/internal/stats"
)

// StopReason records why an adaptive run stopped sampling.
type StopReason string

const (
	// StopConverged means every requested precision target was met.
	StopConverged StopReason = "converged"
	// StopBudget means MaxTrials ran out before the targets were met.
	// Callers must surface this: a budget-capped estimate has NOT reached
	// the requested precision.
	StopBudget StopReason = "budget"
)

// AdaptiveConfig describes a Monte Carlo run to a precision target:
// sampling proceeds in deterministic chunk-aligned rounds until the
// confidence interval meets every requested target (absolute half-width
// and/or relative error), or the trial budget cap is exhausted. Without
// a target it is a fixed run of MaxTrials trials, exactly as Config
// describes one: one round, Rounds 0 and an empty StopReason.
//
// Reproducibility matches the fixed-trials harness exactly: the chunk
// plan is the fixed plan for MaxTrials, rounds consume whole chunks in
// order, and the stopping rule is evaluated only at round barriers over
// counts merged in chunk order. Trials-consumed — and therefore the
// result — is a pure function of (Seed, targets, MaxTrials) and never
// depends on Workers. An adaptive run that exhausts its budget is
// bit-identical to a fixed run with Trials = MaxTrials on the same Seed.
type AdaptiveConfig struct {
	// MaxTrials is the hard trial budget cap, in [1, TrialLimit].
	MaxTrials int
	// Workers is the number of the run's own parallel workers; 0 means
	// GOMAXPROCS. Workers is pure scheduling and never affects results.
	Workers int
	// Helpers is the shared slot pool the run borrows from, exactly as
	// Config.Helpers; nil borrows nothing.
	Helpers *Pool
	// Seed is the experiment seed, interpreted exactly as Config.Seed.
	Seed uint64
	// TargetHalfWidth, when positive, requires the interval half-width to
	// shrink to at most this absolute value. +Inf is permitted (the
	// target is then trivially met) so callers can rescale targets across
	// domains without special-casing underflow.
	TargetHalfWidth float64
	// TargetRelErr, when positive, requires half-width ≤ TargetRelErr ×
	// |estimate|. A zero estimate never satisfies a relative target, so
	// deep-tail runs that sample no successes report StopBudget instead
	// of silently "converging" on an empty interval.
	TargetRelErr float64
	// Confidence is the level of the stopping interval. With a target it
	// must be in (0, 1); without one it is not read.
	Confidence float64
}

// validate checks the run configuration. NaN targets fail the
// positive-form range checks; +Inf is allowed (see AdaptiveConfig).
func (c AdaptiveConfig) validate() error {
	if c.MaxTrials <= 0 || c.MaxTrials > TrialLimit {
		return fmt.Errorf("%w: trial budget %d not in [1, %d]", ErrBadConfig, c.MaxTrials, TrialLimit)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: workers=%d", ErrBadConfig, c.Workers)
	}
	if !(c.TargetHalfWidth >= 0) {
		return fmt.Errorf("%w: target half-width %v", ErrBadConfig, c.TargetHalfWidth)
	}
	if !(c.TargetRelErr >= 0) || math.IsInf(c.TargetRelErr, 1) {
		return fmt.Errorf("%w: target relative error %v", ErrBadConfig, c.TargetRelErr)
	}
	if c.hasTarget() && !(c.Confidence > 0 && c.Confidence < 1) {
		return fmt.Errorf("%w: confidence %v not in (0,1)", ErrBadConfig, c.Confidence)
	}
	return nil
}

// hasTarget reports whether the run samples to a precision target
// rather than spending its whole budget in one round.
func (c AdaptiveConfig) hasTarget() bool {
	return c.TargetHalfWidth > 0 || c.TargetRelErr > 0
}

// converged reports whether every requested target holds for the given
// half-width and point estimate.
func (c AdaptiveConfig) converged(half, estimate float64) bool {
	if c.TargetHalfWidth > 0 && !(half <= c.TargetHalfWidth) {
		return false
	}
	if c.TargetRelErr > 0 && !(half <= c.TargetRelErr*math.Abs(estimate)) {
		return false
	}
	return true
}

// nextRound returns the chunk range [start, end) of the round following
// cumulative consumption of the first `start` chunks: rounds double the
// cumulative chunk count (1, 2, 4, 8, … chunks in total), capped at
// nChunks. The schedule is a pure function of nChunks, so every worker
// count replays the identical rounds.
func nextRound(start, nChunks int) (end int) {
	width := start
	if width == 0 {
		width = 1
	}
	end = start + width
	if end > nChunks {
		end = nChunks
	}
	return end
}

// AdaptiveResult is the outcome of an adaptive probability estimation.
type AdaptiveResult struct {
	Result
	// Rounds is the number of sampling rounds executed.
	Rounds int
	// StopReason records whether the targets were met (StopConverged) or
	// the budget ran out first (StopBudget).
	StopReason StopReason
}

// TrialsUsed returns the number of trials actually consumed.
func (r *AdaptiveResult) TrialsUsed() int { return r.Proportion.Trials() }

// EstimateAdaptiveBits estimates an event probability to a requested
// precision: it runs the bitset trial in deterministic chunk-aligned
// rounds, checking the Wilson interval at cfg.Confidence after each
// round, and stops as soon as every configured target is met or
// cfg.MaxTrials is exhausted. Without a target it is
// EstimateProbabilityBits. See AdaptiveConfig for the reproducibility
// contract. A canceled run returns ctx.Err() alongside partial results.
func EstimateAdaptiveBits(ctx context.Context, cfg AdaptiveConfig, batch BatchTrialBits) (*AdaptiveResult, error) {
	if batch == nil {
		return nil, fmt.Errorf("%w: nil trial", ErrBadConfig)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &AdaptiveResult{}
	var err error
	res.Rounds, res.StopReason, err = run(ctx, cfg, chunkRun[[]uint64, stats.Proportion]{
		what:       "trial",
		newScratch: wordScratch,
		chunk: func(ctx context.Context, src *rng.Source, n int, words []uint64) (stats.Proportion, error) {
			var p stats.Proportion
			successes, err := runProbChunk(ctx, batch, src, words, n)
			if err == nil {
				// Rejects a batch that broke the partial-word contract
				// badly enough to count more successes than trials.
				err = p.AddCounts(successes, n)
			}
			return p, err
		},
		fold: func(p stats.Proportion) error {
			return res.Proportion.AddCounts(p.Successes(), p.Trials())
		},
		interval: func(confidence float64) (float64, float64, float64, error) {
			lo, hi, err := res.WilsonCI(confidence)
			return lo, hi, res.Estimate(), err
		},
	})
	return res, err
}

// AdaptiveMeanResult is the outcome of an adaptive mean estimation.
type AdaptiveMeanResult struct {
	// Summary holds the merged observations, folded in chunk order (so
	// the bits never depend on the worker count).
	Summary stats.Summary
	// Rounds is the number of sampling rounds executed.
	Rounds int
	// StopReason records whether the targets were met or the budget ran
	// out first.
	StopReason StopReason
}

// TrialsUsed returns the number of trials actually consumed.
func (r *AdaptiveMeanResult) TrialsUsed() int { return r.Summary.N() }

// EstimateMeanAdaptiveBatch estimates the mean of a batched real-valued
// sampler to a requested precision, using the normal-approximation
// interval at cfg.Confidence (half-width z·StdErr) as the stopping rule.
// Rounds, merging, and the reproducibility contract are exactly those
// of EstimateAdaptiveBits; without a target it is EstimateMeanBatch.
func EstimateMeanAdaptiveBatch(ctx context.Context, cfg AdaptiveConfig, batch BatchMean) (*AdaptiveMeanResult, error) {
	if batch == nil {
		return nil, fmt.Errorf("%w: nil sampler", ErrBadConfig)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &AdaptiveMeanResult{}
	var err error
	res.Rounds, res.StopReason, err = run(ctx, cfg, chunkRun[[]float64, stats.Summary]{
		what:       "sampler",
		newScratch: floatScratch,
		chunk: func(ctx context.Context, src *rng.Source, n int, out []float64) (stats.Summary, error) {
			var sum stats.Summary
			err := runMeanChunk(ctx, batch, src, out[:n], &sum)
			return sum, err
		},
		// Extending a left-to-right fold keeps the merge in chunk order,
		// so partial and complete results alike are bit-identical at any
		// worker count.
		fold: func(sum stats.Summary) error {
			res.Summary = stats.MergeSummaries(res.Summary, sum)
			return nil
		},
		interval: func(confidence float64) (float64, float64, float64, error) {
			lo, hi, err := res.Summary.MeanCI(confidence)
			return lo, hi, res.Summary.Mean(), err
		},
	})
	return res, err
}
