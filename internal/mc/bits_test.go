package mc

import (
	"context"
	"errors"
	"testing"

	"memreliability/internal/rng"
)

// wobblyBits is wobblyTrial implemented natively on the bitset contract:
// the exact same RNG draws per trial (0–3 data-dependent extras, then one
// Bool), packed LSB-first with the partial-word contract honored. Any
// divergence between this and the BitsFromTrial closure route is a bug
// in one of the two.
func wobblyBits(src *rng.Source, out []uint64, n int) error {
	words := out[:BitWords(n)]
	for w := range words {
		words[w] = 0
	}
	for i := 0; i < n; i++ {
		extra := src.Intn(4)
		for j := 0; j < extra; j++ {
			src.Uint64()
		}
		if src.Bool(0.3) {
			words[i>>6] |= 1 << uint(i&63)
		}
	}
	return nil
}

// coinBits is the trivial allocation-free native bitset trial: one RNG
// word per 64 trials, final partial word masked per the contract. The
// harness's own overhead is everything the zero-alloc assertions
// measure. (It intentionally consumes the RNG differently from coinTrial
// — it exists for alloc and throughput checks, not equivalence ones.)
func coinBits(src *rng.Source, out []uint64, n int) error {
	words := out[:BitWords(n)]
	for w := range words {
		words[w] = src.Uint64()
	}
	if rem := n % WordBits; rem != 0 {
		words[len(words)-1] &= 1<<uint(rem) - 1
	}
	return nil
}

func TestBitWords(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	} {
		if got := BitWords(tc.n); got != tc.want {
			t.Errorf("BitWords(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestBitsFromTrialPartialWord checks the closure adapter zeroes the
// unused high bits of the final word even on a dirty buffer.
func TestBitsFromTrialPartialWord(t *testing.T) {
	always := BitsFromTrial(func(src *rng.Source) (bool, error) { return true, nil })
	words := []uint64{^uint64(0)}
	if err := always(rng.New(1), words, 5); err != nil {
		t.Fatal(err)
	}
	if words[0] != 0x1f {
		t.Fatalf("words[0] = %#x, want 0x1f", words[0])
	}
}

// TestBitsBoolClosureIdenticalEstimates is the bitset engine's property
// test: a native bitset trial and the same boolean per-trial closure
// through BitsFromTrial must aggregate identical counts for the same
// (seed, trials) — across chunk boundaries, partial final words, and
// worker counts. wobblyTrial's data-dependent RNG consumption makes any
// substream misalignment show up immediately.
func TestBitsBoolClosureIdenticalEstimates(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		for _, trials := range []int{1, 37, WordBits, WordBits + 1, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 99} {
			cfg := Config{Trials: trials, Workers: workers, Seed: 7}
			viaBits, err := EstimateProbabilityBits(ctx, cfg, wobblyBits)
			if err != nil {
				t.Fatal(err)
			}
			viaClosure, err := EstimateProbabilityBits(ctx, cfg, BitsFromTrial(wobblyTrial))
			if err != nil {
				t.Fatal(err)
			}
			if viaBits.Proportion.Successes() != viaClosure.Proportion.Successes() ||
				viaBits.Proportion.Trials() != trials || viaClosure.Proportion.Trials() != trials {
				t.Errorf("workers=%d trials=%d: bits %d/%d closure %d/%d",
					workers, trials,
					viaBits.Proportion.Successes(), viaBits.Proportion.Trials(),
					viaClosure.Proportion.Successes(), viaClosure.Proportion.Trials())
			}
		}
	}
}

// TestBitsChunkIdenticalWords checks equivalence at the raw bit level,
// not just the counts: for one chunk on identical substreams, the native
// bitset implementation and the BitsFromTrial closure route must write
// identical words into dirty buffers, including a partial final word.
func TestBitsChunkIdenticalWords(t *testing.T) {
	closure := BitsFromTrial(wobblyTrial)
	for _, n := range []int{1, WordBits - 1, WordBits, WordBits + 1, 1000, chunkSize} {
		viaClosure := make([]uint64, BitWords(n))
		native := make([]uint64, BitWords(n))
		for w := range native {
			viaClosure[w], native[w] = ^uint64(0), ^uint64(0)
		}
		if err := closure(rng.New(99), viaClosure, n); err != nil {
			t.Fatal(err)
		}
		if err := wobblyBits(rng.New(99), native, n); err != nil {
			t.Fatal(err)
		}
		for w := range native {
			if native[w] != viaClosure[w] {
				t.Fatalf("n=%d word %d: native %#x closure %#x", n, w, native[w], viaClosure[w])
			}
		}
	}
}

// TestAdaptiveBitsIdentical checks the adaptive engine on both forms of
// the same trial: the native bitset trial and its BitsFromTrial closure
// form must stop at the same round with identical counts, including a
// budget whose last round ends mid-word.
func TestAdaptiveBitsIdentical(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []AdaptiveConfig{
		{MaxTrials: 8 * chunkSize, Seed: 13, TargetHalfWidth: 0.01, Confidence: 0.95},
		{MaxTrials: 8*chunkSize + 11, Seed: 13, TargetHalfWidth: 0.004, Confidence: 0.95},
	} {
		viaBits, err := EstimateAdaptiveBits(ctx, cfg, wobblyBits)
		if err != nil {
			t.Fatal(err)
		}
		viaClosure, err := EstimateAdaptiveBits(ctx, cfg, BitsFromTrial(wobblyTrial))
		if err != nil {
			t.Fatal(err)
		}
		if viaBits.Rounds != viaClosure.Rounds || viaBits.StopReason != viaClosure.StopReason ||
			viaBits.Proportion.Successes() != viaClosure.Proportion.Successes() ||
			viaBits.Proportion.Trials() != viaClosure.Proportion.Trials() {
			t.Errorf("max=%d: bits %d/%d rounds=%d %s vs closure %d/%d rounds=%d %s", cfg.MaxTrials,
				viaBits.Proportion.Successes(), viaBits.Proportion.Trials(),
				viaBits.Rounds, viaBits.StopReason,
				viaClosure.Proportion.Successes(), viaClosure.Proportion.Trials(),
				viaClosure.Rounds, viaClosure.StopReason)
		}
	}
}

// TestBitsChunkZeroAllocs asserts the native bitset hot path — one whole
// chunk through runProbChunk into the worker's reusable word buffer —
// performs zero allocations per chunk.
func TestBitsChunkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ctx := context.Background()
	src := rng.New(7)
	words := wordScratch()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := runProbChunk(ctx, coinBits, src, words, chunkSize); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("bitset chunk hot path allocates %v per chunk, want 0", allocs)
	}
}

// TestBitsSubWordCancellation checks cancellation latency carries over
// to the bit path at sub-word granularity: with a trial count whose
// final sub-batch is a partial word, cancelling during the first
// sub-batch must prevent every later one — the engine must not "round
// up" to word or chunk boundaries before noticing.
func TestBitsSubWordCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	batch := BatchTrialBits(func(src *rng.Source, out []uint64, n int) error {
		calls++
		cancel()
		for w := range out[:BitWords(n)] {
			out[w] = 0
		}
		return nil
	})
	_, err := EstimateProbabilityBits(ctx, Config{Trials: cancelCheckInterval + 7, Workers: 1, Seed: 1}, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("bitset batch called %d times after mid-chunk cancellation, want 1", calls)
	}
}

// TestBitsCancellationZeroAllocs asserts the cancellation checks
// themselves add no allocations: a chunk short enough to hit the
// partial-word sub-batch path still runs alloc-free.
func TestBitsCancellationZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ctx := context.Background()
	src := rng.New(7)
	words := wordScratch()
	n := cancelCheckInterval + 7 // two sub-batches, second a partial word
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := runProbChunk(ctx, coinBits, src, words, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sub-word cancellation path allocates %v per chunk, want 0", allocs)
	}
}

// TestBitsContractViolationBackstop: an implementation that leaves
// garbage in the unused high bits of the final word can push the
// whole-word success count past the trial count; the aggregation layer
// must reject that instead of returning a biased estimate.
func TestBitsContractViolationBackstop(t *testing.T) {
	ctx := context.Background()
	garbage := BatchTrialBits(func(src *rng.Source, out []uint64, n int) error {
		for w := range out[:BitWords(n)] {
			out[w] = ^uint64(0) // all 64 bits set, ignoring n
		}
		return nil
	})
	if _, err := EstimateProbabilityBits(ctx, Config{Trials: 40, Workers: 1, Seed: 1}, garbage); err == nil {
		t.Fatal("successes > trials accepted; partial-word contract violation went unnoticed")
	}
}

// TestBitsErrorPropagation checks error and nil-batch handling on the
// bitset entry points.
func TestBitsErrorPropagation(t *testing.T) {
	ctx := context.Background()
	sentinel := errors.New("boom")
	_, err := EstimateProbabilityBits(ctx, Config{Trials: 1000, Workers: 2, Seed: 1},
		func(src *rng.Source, out []uint64, n int) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
	if _, err := EstimateProbabilityBits(ctx, Config{Trials: 10}, nil); !errors.Is(err, ErrBadConfig) {
		t.Error("nil bitset trial accepted")
	}
	if _, err := EstimateAdaptiveBits(ctx, AdaptiveConfig{MaxTrials: 10, TargetHalfWidth: 0.1, Confidence: 0.9}, nil); !errors.Is(err, ErrBadConfig) {
		t.Error("nil adaptive bitset trial accepted")
	}
}
