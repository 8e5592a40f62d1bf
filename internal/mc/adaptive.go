package mc

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"memreliability/internal/obs"
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

// AdaptiveConfig controls an adaptive-precision Monte Carlo run: sampling
// proceeds in deterministic chunk-aligned rounds until the confidence
// interval meets every requested target (absolute half-width and/or
// relative error), or the trial budget cap is exhausted.
//
// Reproducibility matches the fixed-trials harness exactly: the chunk
// plan is the fixed plan for MaxTrials, rounds consume whole chunks in
// order, and the stopping rule is evaluated only at round barriers over
// counts merged in chunk order. Trials-consumed — and therefore the
// result — is a pure function of (Seed, targets, MaxTrials) and never
// depends on Workers. An adaptive run that exhausts its budget is
// bit-identical to a fixed run with Trials = MaxTrials on the same Seed.
type AdaptiveConfig struct {
	// MaxTrials is the hard trial budget cap. Must be positive.
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
	// Confidence is the level of the stopping interval (and of the Wilson
	// interval reported by the result). Must be in (0, 1).
	Confidence float64
}

// validate checks the adaptive configuration. NaN targets fail the
// positive-form range checks; +Inf is allowed (see AdaptiveConfig).
func (c AdaptiveConfig) validate() error {
	if c.MaxTrials <= 0 {
		return fmt.Errorf("%w: max trials=%d", ErrBadConfig, c.MaxTrials)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: workers=%d", ErrBadConfig, c.Workers)
	}
	if !(c.Confidence > 0 && c.Confidence < 1) {
		return fmt.Errorf("%w: confidence %v not in (0,1)", ErrBadConfig, c.Confidence)
	}
	if !(c.TargetHalfWidth >= 0) {
		return fmt.Errorf("%w: target half-width %v", ErrBadConfig, c.TargetHalfWidth)
	}
	if !(c.TargetRelErr >= 0) || math.IsInf(c.TargetRelErr, 1) {
		return fmt.Errorf("%w: target relative error %v", ErrBadConfig, c.TargetRelErr)
	}
	if c.TargetHalfWidth == 0 && c.TargetRelErr == 0 {
		return fmt.Errorf("%w: adaptive run needs a half-width or relative-error target", ErrBadConfig)
	}
	return nil
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
// rounds — EstimateProbabilityBits's chunk loop inside each round —
// checking the Wilson interval at cfg.Confidence after each round, and
// stops as soon as every configured target is met or cfg.MaxTrials is
// exhausted. See AdaptiveConfig for the reproducibility contract. A
// canceled run returns ctx.Err() alongside partial results.
func EstimateAdaptiveBits(ctx context.Context, cfg AdaptiveConfig, batch BatchTrialBits) (*AdaptiveResult, error) {
	if batch == nil {
		return nil, fmt.Errorf("%w: nil trial", ErrBadConfig)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sources, quotas := chunkPlan(Config{Trials: cfg.MaxTrials, Seed: cfg.Seed})
	successes := make([]int, len(sources))
	trialsRun := make([]int, len(sources))

	mcRuns.Inc()
	mcRunWorkers.Observe(float64(effectiveWorkers(cfg.Workers, len(sources))))
	parent := obs.SpanFrom(ctx)

	result := &AdaptiveResult{}
	for start := 0; start < len(sources); {
		end := nextRound(start, len(sources))
		// One span per round: rounds are sequential barriers, so span
		// creation order — and the exported tree — is deterministic.
		round := parent.Child("mc.round",
			obs.L("round", strconv.Itoa(result.Rounds)),
			obs.L("chunks", strconv.Itoa(end-start)))
		runErr := runChunksWith(ctx, cfg.Workers, cfg.Helpers, end-start, wordScratch,
			func(ctx context.Context, j int, words []uint64) error {
				chunk := start + j
				n, err := runProbChunk(ctx, batch, sources[chunk], words, quotas[chunk])
				if err != nil {
					if err == ctx.Err() {
						return err
					}
					return fmt.Errorf("mc: trial failed in chunk %d: %w", chunk, err)
				}
				successes[chunk] = n
				trialsRun[chunk] = quotas[chunk]
				mcChunks.Inc()
				mcTrials.Add(int64(quotas[chunk]))
				return nil
			})
		round.End()
		for chunk := start; chunk < end; chunk++ {
			if err := result.Proportion.AddCounts(successes[chunk], trialsRun[chunk]); err != nil {
				return nil, err
			}
		}
		result.Rounds++
		mcAdaptiveRounds.Inc()
		if runErr != nil {
			return result, runErr
		}
		start = end

		lo, hi, err := result.Proportion.WilsonCI(cfg.Confidence)
		if err != nil {
			return result, err
		}
		if cfg.converged((hi-lo)/2, result.Proportion.Estimate()) {
			result.StopReason = StopConverged
			observeStop(StopConverged)
			return result, nil
		}
	}
	result.StopReason = StopBudget
	observeStop(StopBudget)
	return result, nil
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
// of EstimateAdaptiveBits, on EstimateMeanBatch's zero-allocation
// steady-state chunk loop.
func EstimateMeanAdaptiveBatch(ctx context.Context, cfg AdaptiveConfig, batch BatchMean) (*AdaptiveMeanResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if batch == nil {
		return nil, fmt.Errorf("%w: nil sampler", ErrBadConfig)
	}
	sources, quotas := chunkPlan(Config{Trials: cfg.MaxTrials, Seed: cfg.Seed})
	sums := make([]stats.Summary, len(sources))

	mcRuns.Inc()
	mcRunWorkers.Observe(float64(effectiveWorkers(cfg.Workers, len(sources))))
	parent := obs.SpanFrom(ctx)

	result := &AdaptiveMeanResult{}
	for start := 0; start < len(sources); {
		end := nextRound(start, len(sources))
		round := parent.Child("mc.round",
			obs.L("round", strconv.Itoa(result.Rounds)),
			obs.L("chunks", strconv.Itoa(end-start)))
		runErr := runChunksWith(ctx, cfg.Workers, cfg.Helpers, end-start, floatScratch,
			func(ctx context.Context, j int, out []float64) error {
				chunk := start + j
				if err := runMeanChunk(ctx, batch, sources[chunk], out[:quotas[chunk]], &sums[chunk]); err != nil {
					if err == ctx.Err() {
						return err
					}
					return fmt.Errorf("mc: sampler failed in chunk %d: %w", chunk, err)
				}
				mcChunks.Inc()
				mcTrials.Add(int64(quotas[chunk]))
				return nil
			})
		round.End()
		// Extending a left-to-right fold keeps the merge in chunk order,
		// so partial (error-path) and complete results alike are
		// bit-identical at any worker count.
		for chunk := start; chunk < end; chunk++ {
			result.Summary = stats.MergeSummaries(result.Summary, sums[chunk])
		}
		result.Rounds++
		mcAdaptiveRounds.Inc()
		if runErr != nil {
			return result, runErr
		}
		start = end

		lo, hi, err := result.Summary.MeanCI(cfg.Confidence)
		if err != nil {
			return result, err
		}
		if cfg.converged((hi-lo)/2, result.Summary.Mean()) {
			result.StopReason = StopConverged
			observeStop(StopConverged)
			return result, nil
		}
	}
	result.StopReason = StopBudget
	observeStop(StopBudget)
	return result, nil
}
