package core

import (
	"context"
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// estimateNoBug estimates Pr[A] by full Monte Carlo on the table-driven
// kernel: the fixed-trials mc route the estimator runs.
func estimateNoBug(t *testing.T, cfg Config, mcCfg mc.Config) *mc.Result {
	t.Helper()
	batch, err := cfg.NoBugBits()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.EstimateProbabilityBits(context.Background(), mcCfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProductBatchMatchesClosure is the same check for the Theorem 6.1
// product trial: identical float64 bits on identical substreams.
func TestProductBatchMatchesClosure(t *testing.T) {
	cfg := Config{Model: memmodel.WO(), Threads: 4, PrefixLen: 16, StoreProb: 0.5, SwapProb: 0.5}
	batch, err := cfg.ProductBatch()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	batchSrc, closureSrc := rng.New(9), rng.New(9)
	out := make([]float64, trials)
	if err := batch(batchSrc, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		want, err := cfg.ProductTrial(closureSrc)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("trial %d: batch=%v closure=%v", i, out[i], want)
		}
	}
}

// TestEstimateNoBugProbStillDeterministic pins the end-to-end estimate:
// (seed, trials) → counts is unchanged across worker counts and equal to
// the reference oracle's run on the same substreams.
func TestEstimateNoBugProbStillDeterministic(t *testing.T) {
	cfg := Config{Model: memmodel.TSO(), Threads: 2, PrefixLen: 16, StoreProb: 0.5, SwapProb: 0.5}
	var want int
	for i, workers := range []int{1, 4} {
		res := estimateNoBug(t, cfg, mc.Config{Trials: 3000, Workers: workers, Seed: 62})
		if i == 0 {
			want = res.Proportion.Successes()
		} else if res.Proportion.Successes() != want {
			t.Errorf("workers=%d: %d successes, want %d", workers, res.Proportion.Successes(), want)
		}
	}

	ref, err := cfg.ReferenceNoBugBits()
	if err != nil {
		t.Fatal(err)
	}
	viaRef, err := mc.EstimateProbabilityBits(context.Background(),
		mc.Config{Trials: 3000, Seed: 62}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if viaRef.Proportion.Successes() != want {
		t.Errorf("reference run: %d successes, want %d", viaRef.Proportion.Successes(), want)
	}
}

// TestBatchConstructorsValidate checks that invalid configs fail at
// construction, before any sampling.
func TestBatchConstructorsValidate(t *testing.T) {
	bad := Config{Model: memmodel.TSO(), Threads: 1, PrefixLen: 16}
	if _, err := bad.ReferenceNoBugBits(); err == nil {
		t.Error("ReferenceNoBugBits accepted threads=1")
	}
	if _, err := bad.CompiledNoBugBits(); err == nil {
		t.Error("CompiledNoBugBits accepted threads=1")
	}
	if _, err := bad.ProductBatch(); err == nil {
		t.Error("ProductBatch accepted threads=1")
	}
}
