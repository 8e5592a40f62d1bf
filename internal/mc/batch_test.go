package mc

import (
	"context"
	"errors"
	"math"
	"testing"

	"memreliability/internal/rng"
	"memreliability/internal/stats"
)

// wobblyTrial is a per-trial closure with data-dependent RNG consumption
// (0–3 extra draws per trial), so any batch/closure misalignment of the
// substream shows up immediately in the outcomes that follow.
func wobblyTrial(src *rng.Source) (bool, error) {
	n := src.Intn(4)
	for i := 0; i < n; i++ {
		src.Uint64()
	}
	return src.Bool(0.3), nil
}

// meanReference folds sample over the chunk plan one observation at a
// time — trial order within a chunk, chunk order across chunks — which
// is the sequential definition the batched mean engines must reproduce
// bit for bit.
func meanReference(cfg Config, sample func(*rng.Source) float64) stats.Summary {
	sources, quotas := chunkPlan(cfg.Trials, cfg.Seed)
	var merged stats.Summary
	for chunk, src := range sources {
		var sum stats.Summary
		for i := 0; i < quotas[chunk]; i++ {
			sum.Add(sample(src))
		}
		merged = stats.MergeSummaries(merged, sum)
	}
	return merged
}

// sameSummary reports whether two summaries agree to the bit.
func sameSummary(a, b stats.Summary) bool {
	return a.N() == b.N() &&
		math.Float64bits(a.Mean()) == math.Float64bits(b.Mean()) &&
		math.Float64bits(a.Variance()) == math.Float64bits(b.Variance())
}

// TestBatchClosureIdenticalBooleans is the closure-adapter property
// test: for identical substreams, BitsFromTrial must record exactly the
// outcomes the per-trial closure produces, trial for trial, and leave
// the source where the closure calls leave it — across chunk boundaries
// (trial counts below, at, and above multiples of chunkSize) and partial
// final words.
func TestBatchClosureIdenticalBooleans(t *testing.T) {
	batch := BitsFromTrial(wobblyTrial)
	for _, trials := range []int{1, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 17} {
		sources, quotas := chunkPlan(trials, 42)
		closureSources, _ := chunkPlan(trials, 42)
		words := make([]uint64, BitWords(chunkSize))
		for chunk := range sources {
			if err := batch(sources[chunk], words, quotas[chunk]); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < quotas[chunk]; i++ {
				want, err := wobblyTrial(closureSources[chunk])
				if err != nil {
					t.Fatal(err)
				}
				if got := words[i>>6]&(1<<uint(i&63)) != 0; got != want {
					t.Fatalf("trials=%d chunk=%d trial=%d: batch=%v closure=%v",
						trials, chunk, i, got, want)
				}
			}
			if sources[chunk].State() != closureSources[chunk].State() {
				t.Fatalf("trials=%d chunk=%d: batch and closure consumed different draws", trials, chunk)
			}
		}
	}
}

// TestBatchClosureIdenticalEstimates checks the fixed-trials mean engine
// end to end: the batched summary must match the sequential per-sample
// fold to the bit, across chunk boundaries and worker counts.
// (TestBitsBoolClosureIdenticalEstimates is the probability engine's
// counterpart.)
func TestBatchClosureIdenticalEstimates(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		for _, trials := range []int{1, 100, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 99} {
			cfg := Config{Trials: trials, Workers: workers, Seed: 7}
			mean, err := EstimateMeanBatch(ctx, cfg, uniformMean)
			if err != nil {
				t.Fatal(err)
			}
			if want := meanReference(cfg, (*rng.Source).Float64); !sameSummary(*mean, want) {
				t.Errorf("workers=%d trials=%d: batch mean %v (n=%d) vs per-sample %v (n=%d)",
					workers, trials, mean.Mean(), mean.N(), want.Mean(), want.N())
			}
		}
	}
}

// TestAdaptiveBatchClosureIdentical checks the adaptive mean engine: its
// summary must equal the sequential per-sample fold over exactly the
// chunks its rounds consumed, whether it converged or ran out of
// budget. (TestAdaptiveBitsIdentical is the probability engine's
// counterpart.)
func TestAdaptiveBatchClosureIdentical(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		cfg  AdaptiveConfig
		stop StopReason
	}{
		{AdaptiveConfig{MaxTrials: 8 * chunkSize, Workers: 3, Seed: 13, TargetRelErr: 0.01, Confidence: 0.95}, StopConverged},
		{AdaptiveConfig{MaxTrials: 3*chunkSize + 5, Workers: 3, Seed: 13, TargetRelErr: 1e-6, Confidence: 0.95}, StopBudget},
	} {
		res, err := EstimateMeanAdaptiveBatch(ctx, tc.cfg, uniformMean)
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != tc.stop {
			t.Fatalf("max=%d: stop reason %q, want %q", tc.cfg.MaxTrials, res.StopReason, tc.stop)
		}
		want := meanReference(Config{Trials: res.TrialsUsed(), Seed: tc.cfg.Seed}, (*rng.Source).Float64)
		if !sameSummary(res.Summary, want) {
			t.Errorf("max=%d: adaptive mean %v (n=%d) vs per-sample %v (n=%d)", tc.cfg.MaxTrials,
				res.Summary.Mean(), res.Summary.N(), want.Mean(), want.N())
		}
	}
}

// TestProbChunkZeroAllocs asserts the steady-state fixed-MC inner loop —
// one whole chunk evaluated through the BitsFromTrial closure adapter
// into the worker's reusable bitset scratch — performs zero allocations
// per chunk. (The native bitset path has its own assertion in
// bits_test.go.)
func TestProbChunkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ctx := context.Background()
	src := rng.New(7)
	batch := BitsFromTrial(coinTrial)
	words := wordScratch()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := runProbChunk(ctx, batch, src, words, chunkSize); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("probability chunk hot path allocates %v per chunk, want 0", allocs)
	}
}

// TestMeanChunkZeroAllocs is TestProbChunkZeroAllocs for the mean engine.
func TestMeanChunkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ctx := context.Background()
	src := rng.New(7)
	out := floatScratch()
	var summary stats.Summary
	allocs := testing.AllocsPerRun(50, func() {
		if err := runMeanChunk(ctx, uniformMean, src, out, &summary); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("mean chunk hot path allocates %v per chunk, want 0", allocs)
	}
}

// TestBatchIntraChunkCancellation checks the mean engine notices a
// canceled context between sub-batches of one chunk, not merely between
// chunks: after the first cancelCheckInterval-sized call, no further
// batch calls happen. (TestBitsSubWordCancellation is the bitset
// engine's counterpart.)
func TestBatchIntraChunkCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	batch := BatchMean(func(src *rng.Source, out []float64) error {
		calls++
		cancel()
		return nil
	})
	_, err := EstimateMeanBatch(ctx, Config{Trials: chunkSize, Workers: 1, Seed: 1}, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("batch called %d times after mid-chunk cancellation, want 1", calls)
	}
}

// TestBatchErrorPropagation checks error and nil-batch handling on the
// mean entry points and on a closure failing mid-chunk.
func TestBatchErrorPropagation(t *testing.T) {
	ctx := context.Background()
	sentinel := errors.New("boom")
	calls := 0
	failLate := BitsFromTrial(func(src *rng.Source) (bool, error) {
		if calls++; calls > chunkSize+100 {
			return false, sentinel
		}
		return src.Bool(0.5), nil
	})
	if _, err := EstimateProbabilityBits(ctx, Config{Trials: 2 * chunkSize, Workers: 1, Seed: 1}, failLate); !errors.Is(err, sentinel) {
		t.Errorf("closure failing in chunk 1: err = %v, want wrapped sentinel", err)
	}
	failing := func(src *rng.Source, out []float64) error { return sentinel }
	acfg := AdaptiveConfig{MaxTrials: 1000, TargetHalfWidth: 0.1, Confidence: 0.9}
	if _, err := EstimateMeanAdaptiveBatch(ctx, acfg, failing); !errors.Is(err, sentinel) {
		t.Errorf("adaptive mean: err = %v, want wrapped sentinel", err)
	}
	if _, err := EstimateMeanBatch(ctx, Config{Trials: 10}, nil); !errors.Is(err, ErrBadConfig) {
		t.Error("nil batch sampler accepted")
	}
	if _, err := EstimateMeanAdaptiveBatch(ctx, acfg, nil); !errors.Is(err, ErrBadConfig) {
		t.Error("nil adaptive batch sampler accepted")
	}
}
