// bitstrial: implement a custom bit-parallel batched trial
// (BatchTrialBits) and run it on the Monte Carlo harness directly.
//
// The harness's native batch contract packs 64 trial outcomes into each
// uint64 word, LSB-first. A custom implementation controls how it spends
// the chunk's RNG substream, so a trial whose outcome is one random bit
// can evaluate 64 trials per RNG draw — the packing itself costs
// nothing. The one obligation is the partial-word contract: when n is
// not a multiple of 64, the unused high bits of the final word must be
// written as zero, because the harness counts successes by popcounting
// whole words.
//
// The example estimates Pr[popcount(w) ≥ 40] for a uniform random
// 64-bit word w with a native BatchTrialBits that draws one word per
// trial and writes one outcome bit (the final-word mask holds by
// construction), and shows the estimate does not depend on the worker
// count.
package main

import (
	"context"
	"fmt"
	"math/bits"
	"os"

	"memreliability"
	"memreliability/internal/rng"
)

// heavyWord reports whether one uniform random word has ≥ 40 set bits.
func heavyWord(src *rng.Source) bool {
	return bits.OnesCount64(src.Uint64()) >= 40
}

// heavyBits is the native bitset batch: n trials, one outcome bit each.
// Zeroing the words first and OR-ing in successes satisfies the
// partial-word contract without a final mask.
func heavyBits(src *rng.Source, out []uint64, n int) error {
	words := out[:memreliability.MCBitWords(n)]
	for w := range words {
		words[w] = 0
	}
	for i := 0; i < n; i++ {
		if heavyWord(src) {
			words[i>>6] |= 1 << uint(i&63)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "bitstrial: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	const trials = 200_000
	fmt.Printf("Pr[popcount(w) >= 40], %d trials, seed 7:\n\n", trials)

	var first float64
	for _, workers := range []int{1, 4} {
		cfg := memreliability.MCConfig{Trials: trials, Workers: workers, Seed: 7}
		res, err := memreliability.EstimateProbabilityBits(ctx, cfg, heavyBits)
		if err != nil {
			return err
		}
		p := res.Proportion.Estimate()
		fmt.Printf("  workers=%d  estimate=%.6f  (%d successes)\n", workers, p, res.Proportion.Successes())
		if workers == 1 {
			first = p
		} else if p != first {
			return fmt.Errorf("worker-count changed the estimate: %v vs %v", p, first)
		}
	}

	fmt.Println("\nEach chunk draws from its own seed-derived substream, so the estimate")
	fmt.Println("does not depend on the worker count. The exact binomial value is")
	fmt.Println("sum_{k>=40} C(64,k)/2^64 ≈ 0.02997.")
	return nil
}
