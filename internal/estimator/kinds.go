package estimator

import (
	"context"
	"fmt"

	"memreliability/internal/core"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/settle"
)

// The built-in routes register at init, so every surface that can name
// a Kind can dispatch it. Full Monte Carlo registers once per trial
// engine.
func init() {
	Register(exactEstimator{})
	Register(mcEstimator{kind: FullMC, name: "full Monte Carlo", bits: core.Config.NoBugBits})
	Register(hybridEstimator{})
	Register(windowDistEstimator{})
	Register(mcEstimator{kind: CompiledMC, name: "full Monte Carlo (compiled kernel)",
		bits: core.Config.CompiledNoBugBits})
}

// coreConfig translates the query into the joined-model configuration.
func coreConfig(q Query) (core.Config, error) {
	model, err := memmodel.ByName(q.Model)
	if err != nil {
		return core.Config{}, fmt.Errorf("estimator: %w", err)
	}
	return core.Config{
		Model:     model,
		Threads:   q.Threads,
		PrefixLen: q.PrefixLen,
		StoreProb: q.StoreProb,
		SwapProb:  q.SwapProb,
	}, nil
}

// runConfig translates the query and execution budget into its Monte
// Carlo run on the derived substream seed: Trials trials, or with a
// precision block a run to its targets within its (normalized) MaxTrials.
// Estimate, EstimateBatch and sweep dispatch normalize the query first;
// normalizing the block again here covers direct Run callers.
func runConfig(q Query, seed uint64, ex Exec) mc.AdaptiveConfig {
	run := mc.AdaptiveConfig{MaxTrials: q.Trials, Workers: ex.Workers, Helpers: ex.Helpers, Seed: seed,
		Confidence: q.confidence()}
	if q.Precision != nil {
		p := q.Precision.Normalized(q.Trials)
		run.MaxTrials, run.TargetHalfWidth, run.TargetRelErr = p.MaxTrials, p.TargetHalfWidth, p.TargetRelErr
	}
	return run
}

// exactEstimator is the n=2 exact dynamic program (Theorem 6.2).
type exactEstimator struct{}

func (exactEstimator) Kind() Kind          { return Exact }
func (exactEstimator) DisplayName() string { return "exact DP (n=2)" }
func (exactEstimator) NeedsTrials() bool   { return false }

func (exactEstimator) Estimate(ctx context.Context, q Query, seed uint64, ex Exec) (Result, error) {
	res := Result{Kind: Exact, EffectiveM: q.PrefixLen}
	if q.Threads != 2 {
		res.Skipped = true
		res.Note = "exact DP requires n = 2"
		return res, nil
	}
	cfg, err := coreConfig(q)
	if err != nil {
		return res, err
	}
	iv, err := core.ExactTwoThreadPrA(cfg)
	if err != nil {
		return res, fmt.Errorf("estimator: %w", err)
	}
	res.Estimate = iv.Midpoint()
	res.Lo, res.Hi = iv.Lo, iv.Hi
	res.LogEstimate = safeLog(res.Estimate)
	return res, nil
}

// mcEstimator is full end-to-end Monte Carlo of the joined process on
// the mc harness's bit-parallel hot path: 64 trials per word, whole
// chunks per call, zero steady-state allocations. The mc kind runs it on
// the table-driven kernel (core.Config.NoBugBits); mc-compiled runs it
// on the query-compiled kernel through core's plan cache
// (core.Config.CompiledNoBugBits). Seed derivation is kind-independent
// and the engines are draw-for-draw identical, so both kinds return
// bit-identical results — the cross-engine property tests and diffcheck
// gate on exactly that.
type mcEstimator struct {
	kind Kind
	name string
	// bits builds the trial engine's bitset batch for the query.
	bits func(core.Config) (mc.BatchTrialBits, error)
}

func (e mcEstimator) Kind() Kind          { return e.kind }
func (e mcEstimator) DisplayName() string { return e.name }
func (mcEstimator) NeedsTrials() bool     { return true }

func (e mcEstimator) Estimate(ctx context.Context, q Query, seed uint64, ex Exec) (Result, error) {
	res := Result{Kind: e.kind, EffectiveM: q.PrefixLen}
	cfg, err := coreConfig(q)
	if err != nil {
		return res, err
	}
	batch, err := e.bits(cfg)
	if err != nil {
		return res, fmt.Errorf("estimator: %w", err)
	}
	out, err := mc.EstimateAdaptiveBits(ctx, runConfig(q, seed, ex), batch)
	if err != nil {
		return res, fmt.Errorf("estimator: %w", err)
	}
	res.TrialsUsed, res.Rounds, res.StopReason = out.TrialsUsed(), out.Rounds, string(out.StopReason)
	level := q.confidence()
	lo, hi, err := out.WilsonCI(level)
	if err != nil {
		return res, fmt.Errorf("estimator: %w", err)
	}
	res.Estimate = out.Estimate()
	res.Lo, res.Hi = lo, hi
	res.Confidence = level
	res.LogEstimate = safeLog(res.Estimate)
	return res, nil
}

// hybridEstimator is the Theorem 6.1 hybrid route. Its product
// expectation runs on the mc harness's batched hot path via the
// compiled engine's products fill (core.Config.ProductBatch, through
// core's plan cache), bit-identical to the per-trial
// core.Config.ProductTrial — diffcheck.CheckProducts gates on exactly
// that.
type hybridEstimator struct{}

func (hybridEstimator) Kind() Kind          { return Hybrid }
func (hybridEstimator) DisplayName() string { return "hybrid (Thm 6.1)" }
func (hybridEstimator) NeedsTrials() bool   { return true }

func (hybridEstimator) Estimate(ctx context.Context, q Query, seed uint64, ex Exec) (Result, error) {
	res := Result{Kind: Hybrid, EffectiveM: q.PrefixLen}
	cfg, err := coreConfig(q)
	if err != nil {
		return res, err
	}
	out, err := core.HybridPrA(ctx, cfg, runConfig(q, seed, ex))
	if err != nil {
		return res, fmt.Errorf("estimator: %w", err)
	}
	res.TrialsUsed, res.Rounds, res.StopReason = out.TrialsUsed, out.Rounds, string(out.StopReason)
	res.Estimate = out.PrA
	res.LogEstimate = out.LogPrA
	res.StdErr = out.StdErr
	res.ProductExpectation = out.ProductExpectation
	return res, nil
}

// windowDistEstimator tabulates the exact Pr[B_γ] distribution from the
// settling DP, the one core.ExactTwoThreadPrA reads for the exact kind.
type windowDistEstimator struct{}

func (windowDistEstimator) Kind() Kind          { return WindowDist }
func (windowDistEstimator) DisplayName() string { return "window distribution" }
func (windowDistEstimator) NeedsTrials() bool   { return false }

func (windowDistEstimator) Estimate(ctx context.Context, q Query, seed uint64, ex Exec) (Result, error) {
	res := Result{Kind: WindowDist, EffectiveM: q.PrefixLen}
	model, err := memmodel.ByName(q.Model)
	if err != nil {
		return res, fmt.Errorf("estimator: %w", err)
	}
	maxGamma := min(q.MaxGamma, q.PrefixLen)
	pmf, err := settle.ExactWindowDist(model, q.PrefixLen, q.StoreProb, q.SwapProb, maxGamma)
	if err != nil {
		return res, fmt.Errorf("estimator: %w", err)
	}
	res.Dist = make([]float64, maxGamma+1)
	mean := 0.0
	for gamma := range res.Dist {
		res.Dist[gamma] = pmf.At(gamma)
		mean += float64(gamma) * pmf.At(gamma)
	}
	res.Estimate = mean
	return res, nil
}
