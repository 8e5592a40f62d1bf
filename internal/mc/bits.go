package mc

import (
	"context"
	"math/bits"

	"memreliability/internal/rng"
)

// This file is the bit-parallel trial contract of the Monte Carlo
// harness. Trial outcomes are packed 64 per machine word and counted
// with bits.OnesCount64, so the per-trial cost of the harness reduces to
// one bit write and 1/64th of a popcount. Per-trial closures (Trial)
// reach it through BitsFromTrial, which consumes the RNG substream
// exactly as the closure calls would, so a closure and a native bitset
// implementation of the same trial produce bit-identical estimates.

// WordBits is the number of trials packed into one bitset word.
const WordBits = 64

// BitWords returns the number of uint64 words needed to hold n trial
// outcomes: ⌈n/64⌉.
func BitWords(n int) int { return (n + WordBits - 1) / WordBits }

// BatchTrialBits is the batched boolean trial contract: evaluate n
// consecutive trials on src and pack the outcomes into out, 64 trials
// per word, LSB-first — trial i lands in bit i%64 of out[i/64], so
// out[0]&1 is trial 0. len(out) is always at least BitWords(n).
//
// Partial-word contract: when n is not a multiple of 64, the bits at
// positions ≥ n%64 of the final word out[BitWords(n)-1] MUST be written
// as zero. The harness counts successes over whole words with
// bits.OnesCount64 and relies on this; a violation grossly enough to
// push successes past trials is caught by the aggregation layer, but
// smaller violations would silently bias the estimate. BitsFromTrial
// satisfies the contract for you.
//
// An implementation must consume src exactly as n sequential Trial
// calls would, so the harness's sub-batch slicing never changes results
// and a native implementation stays bit-identical to its BitsFromTrial
// closure form; distinct calls receive distinct sources and may run
// concurrently, so any state shared between calls must be immutable.
type BatchTrialBits func(src *rng.Source, out []uint64, n int) error

// OnesCount returns the total number of set bits across the words.
func OnesCount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// BitsFromTrial adapts a per-trial closure to the bitset interface,
// preserving the closure's semantics exactly (same calls, same RNG
// stream) and satisfying the partial-word contract.
func BitsFromTrial(trial Trial) BatchTrialBits {
	return func(src *rng.Source, out []uint64, n int) error {
		words := out[:BitWords(n)]
		for w := range words {
			words[w] = 0
		}
		for i := 0; i < n; i++ {
			ok, err := trial(src)
			if err != nil {
				return err
			}
			if ok {
				words[i>>6] |= 1 << uint(i&63)
			}
		}
		return nil
	}
}

// runProbChunk evaluates one whole chunk through the bitset trial into
// the worker's reusable word buffer and returns the success count via
// bits.OnesCount64. This is the steady-state hot path of every
// probability estimate: it performs zero allocations per call (asserted
// by tests). The chunk is sliced into cancelCheckInterval-trial
// sub-batches with a context check between them, preserving the
// per-trial era's cancellation latency down to the final partial word;
// sub-batch boundaries are word-aligned (the interval is a multiple of
// 64), so consecutive sub-slices compose into exactly one whole-chunk
// call under the BatchTrialBits contract.
func runProbChunk(ctx context.Context, batch BatchTrialBits, src *rng.Source, words []uint64, n int) (successes int, err error) {
	count := 0
	for off := 0; off < n; off += cancelCheckInterval {
		if err := ctx.Err(); err != nil {
			return count, err
		}
		end := off + cancelCheckInterval
		if end > n {
			end = n
		}
		sub := words[off>>6 : BitWords(end)]
		if err := batch(src, sub, end-off); err != nil {
			return count, err
		}
		count += OnesCount(sub)
	}
	return count, nil
}
