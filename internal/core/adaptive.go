package core

import (
	"context"
	"fmt"

	"memreliability/internal/mc"
	"memreliability/internal/shift"
)

// HybridAdaptiveResult is the outcome of an adaptive Theorem 6.1 hybrid
// estimation: the usual hybrid result plus the sampling cost and the
// stopping diagnosis.
type HybridAdaptiveResult struct {
	HybridResult
	// TrialsUsed is the number of product-expectation trials consumed.
	TrialsUsed int
	// Rounds is the number of chunk-aligned sampling rounds executed.
	Rounds int
	// StopReason is mc.StopConverged or mc.StopBudget.
	StopReason mc.StopReason
}

// HybridPrAAdaptive estimates Pr[A] via Theorem 6.1 to a requested
// precision on Pr[A] itself. The hybrid estimate is the analytic
// constant K(n) = Theorem61(n, 1) times the Monte Carlo product
// expectation, so a relative-error target transfers to the expectation
// unchanged, and an absolute half-width target rescales by 1/K(n)
// (division by an underflowed K yields +Inf — i.e. an absolute target
// astronomically looser than the quantity is trivially met, which is the
// mathematically correct reading). The stopping rule is the
// normal-approximation interval of the product expectation at the
// config's confidence level.
func HybridPrAAdaptive(ctx context.Context, cfg Config, acfg mc.AdaptiveConfig) (*HybridAdaptiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if acfg.TargetHalfWidth > 0 {
		k, err := shift.Theorem61(cfg.Threads, 1)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		acfg.TargetHalfWidth /= k
	}
	batch, err := cfg.ProductBatch()
	if err != nil {
		return nil, err
	}
	sum, err := mc.EstimateMeanAdaptiveBatch(ctx, acfg, batch)
	if err != nil {
		return nil, err
	}
	res, err := hybridResultFrom(cfg, sum.Summary.Mean(), sum.Summary.StdErr())
	if err != nil {
		return nil, err
	}
	return &HybridAdaptiveResult{
		HybridResult: *res,
		TrialsUsed:   sum.TrialsUsed(),
		Rounds:       sum.Rounds,
		StopReason:   sum.StopReason,
	}, nil
}
