// exact.go computes Pr[A] exactly for small instances of the joined model
// by enumerating every program, every per-thread window size, and the
// exact shift-disjointness probability — with no sampling anywhere. It is
// the strongest available validator for the Monte Carlo and hybrid
// estimators: unlike ExactTwoThreadPrA it handles n > 2, including the
// cross-thread window dependence that a shared program induces under TSO
// and PSO.
package core

import (
	"fmt"
	"math"
	"sort"

	"memreliability/internal/dist"
	"memreliability/internal/memmodel"
	"memreliability/internal/settle"
	"memreliability/internal/shift"
)

// maxExactEnumPrefix bounds the 2^m program enumeration.
const maxExactEnumPrefix = 12

// maxExactEnumThreads bounds the (m+1)^n window-tuple enumeration.
const maxExactEnumThreads = 4

// ExactSmallPrA returns the exact probability that the bug does not
// manifest, for the configured model, thread count (2..4) and prefix
// length (≤ 12), by full enumeration:
//
//	Pr[A] = Σ_prog Pr[prog] · Σ_{γ₁..γₙ} Π_k Pr[B_{γ_k} | prog] · Pr[A(Γ̄)],
//
// where Pr[B_γ | prog] comes from the conditional settling DP and
// Pr[A(Γ̄)] from the exact Theorem 5.1 evaluation. Both the program
// expectation and the window tuples are exhausted, so the only
// approximation anywhere is float64 rounding.
func ExactSmallPrA(cfg Config) (float64, error) {
	m := cfg.PrefixLen
	n := cfg.Threads

	// Pr[A(Γ̄)] depends only on the multiset of segment lengths; memoize.
	disjointCache := make(map[string]float64)
	disjointProb := func(gammas []int) (float64, error) {
		segments := make([]int, len(gammas))
		for i, g := range gammas {
			segments[i] = g + 2 // Γ = γ + 2
		}
		sort.Ints(segments)
		key := fmt.Sprint(segments)
		if v, ok := disjointCache[key]; ok {
			return v, nil
		}
		v, err := shift.ExactTheorem51(segments)
		if err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
		disjointCache[key] = v
		return v, nil
	}

	total := 0.0
	var gammas [maxExactEnumThreads]int
	err := enumeratePrograms(cfg, func(weight float64, pmf *dist.PMF) error {
		// Sum over all window tuples; threads are conditionally i.i.d.
		var sumTuples func(k int, tupleWeight float64) (float64, error)
		sumTuples = func(k int, tupleWeight float64) (float64, error) {
			if tupleWeight == 0 {
				return 0, nil
			}
			if k == n {
				pA, err := disjointProb(gammas[:n])
				if err != nil {
					return 0, err
				}
				return tupleWeight * pA, nil
			}
			acc := 0.0
			for g := 0; g <= m; g++ {
				gammas[k] = g
				v, err := sumTuples(k+1, tupleWeight*pmf.At(g))
				if err != nil {
					return 0, err
				}
				acc += v
			}
			return acc, nil
		}
		progPrA, err := sumTuples(0, 1)
		if err != nil {
			return err
		}
		total += weight * progPrA
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// ExactProductExpectation returns the exact Theorem 6.1 expectation
// E[Π_{i=1}^{n-1} 2^-i·Γᵢ] by the same full enumeration, for validating
// the Monte Carlo product estimator including cross-thread dependence.
func ExactProductExpectation(cfg Config) (float64, error) {
	m := cfg.PrefixLen
	n := cfg.Threads
	total := 0.0
	err := enumeratePrograms(cfg, func(weight float64, pmf *dist.PMF) error {
		// Conditionally independent threads: the product expectation
		// factorizes given the program, E[Π 2^-iΓᵢ | prog] =
		// Π_i E[2^-i(γ+2) | prog].
		product := 1.0
		for i := 1; i <= n-1; i++ {
			e := 0.0
			for g := 0; g <= m; g++ {
				e += pmf.At(g) * math.Pow(2, -float64(i*(g+2)))
			}
			product *= e
		}
		total += weight * product
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// enumeratePrograms checks the config against both enumeration limits,
// then hands visit each of the 2^m program prefixes of nonzero weight,
// in mask order: its probability and its conditional window PMF
// Pr[B_γ | prog].
func enumeratePrograms(cfg Config, visit func(weight float64, pmf *dist.PMF) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.PrefixLen > maxExactEnumPrefix {
		return fmt.Errorf("%w: prefix length %d exceeds exact-enumeration limit %d",
			ErrBadConfig, cfg.PrefixLen, maxExactEnumPrefix)
	}
	if cfg.Threads > maxExactEnumThreads {
		return fmt.Errorf("%w: %d threads exceeds exact-enumeration limit %d",
			ErrBadConfig, cfg.Threads, maxExactEnumThreads)
	}
	m := cfg.PrefixLen
	prefix := make([]memmodel.OpType, m)
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		weight := 1.0
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				prefix[i] = memmodel.Store
				weight *= cfg.StoreProb
			} else {
				prefix[i] = memmodel.Load
				weight *= 1 - cfg.StoreProb
			}
		}
		if weight == 0 {
			continue
		}
		pmf, err := settle.ConditionalWindowDist(cfg.Model, prefix, cfg.SwapProb)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if err := visit(weight, pmf); err != nil {
			return err
		}
	}
	return nil
}

// ExactSmallPrAViaTheorem61 combines the exact product expectation with
// the exact shift combinatorics of Theorem 6.1. Agreement with
// ExactSmallPrA is a full numerical verification of Theorem 6.1 on
// dependent, identically distributed windows.
func ExactSmallPrAViaTheorem61(cfg Config) (float64, error) {
	expectation, err := ExactProductExpectation(cfg)
	if err != nil {
		return 0, err
	}
	// Theorem 6.1 averages over programs *outside* the n!·E[·] term; with
	// conditionally independent threads the program-level expectation of
	// the factorized product is exactly the joint expectation, so the
	// formula applies unchanged.
	v, err := shift.Theorem61(cfg.Threads, expectation)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return v, nil
}
