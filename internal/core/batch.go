package core

import (
	"math"

	"memreliability/internal/mc"
	"memreliability/internal/rng"
)

// This file holds the reference bitset batch of the joined-model trial
// and the compiled product batch. Estimation runs on the trial
// engines (NoBugBits, CompiledNoBugBits); ReferenceNoBugBits is the
// oracle their property tests and diffcheck compare against.

// productOf computes Π_{i=1}^{n-1} 2^-i·Γᵢ — the Theorem 6.1 expectation
// integrand — from one draw of segment lengths, in log space.
func productOf(segments []int) float64 {
	logProduct := 0.0
	for i := 1; i <= len(segments)-1; i++ {
		logProduct += -float64(i) * float64(segments[i-1]) * math.Ln2
	}
	return math.Exp(logProduct)
}

// ReferenceNoBugBits returns the reference bitset batch of the full
// joined-process trial: bit i reports whether the bug did NOT manifest
// (the event A) on the i-th trial. It is mc.BitsFromTrial over
// ManifestTrial — SampleSegments then shift.DisjointTrial, on the
// independent prog, settle and shift packages rather than the KernelIR
// — and it is the single oracle the kernel and compiler property tests
// and diffcheck.CheckEngines hold both trial engines to. It shares no
// state between calls, so the harness may run it concurrently.
func (c Config) ReferenceNoBugBits() (mc.BatchTrialBits, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return mc.BitsFromTrial(func(src *rng.Source) (bool, error) {
		manifested, err := c.ManifestTrial(src)
		return !manifested, err
	}), nil
}

// ProductBatch returns the batched form of the Theorem 6.1 product
// trial: out[i] is one sample of Π_{i=1}^{n-1} 2^-i·Γᵢ from a fresh
// joined-process draw. It runs on the compiled engine through the
// default plan cache (Program.FillProducts; repeated queries share one
// Program), bit-identical to the ProductTrial closure route. An invalid
// config fails before it reaches the cache.
func (c Config) ProductBatch() (mc.BatchMean, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	prog, err := DefaultPlanCache().Lookup(c)
	if err != nil {
		return nil, err
	}
	return prog.FillProducts, nil
}
