// Package shift implements the paper's shift process (Definition 1, §5,
// Appendix A.3): n integer line segments of lengths γ̄ = (γ1, ..., γn),
// each translated up from the origin by an i.i.d. geometric shift with
// Pr[s = k] = 2^-(k+1). The event of interest, A(γ̄), is that the shifted
// closed segments [sᵢ, sᵢ+γᵢ] are mutually disjoint.
//
// Three independent evaluations of Pr[A(γ̄)] are provided:
//
//   - Sample / DisjointTrial: direct simulation;
//   - ExactTheorem51: the closed form of Theorem 5.1 (a sum over the
//     symmetric group);
//   - ExactBruteForce: truncated summation over shift vectors with a
//     rigorous tail bound, used to validate the theorem's formula.
package shift

import (
	"errors"
	"fmt"
	"math"

	"memreliability/internal/combin"
	"memreliability/internal/dist"
	"memreliability/internal/rng"
)

// ErrBadInput reports invalid shift-process inputs.
var ErrBadInput = errors.New("shift: bad input")

// MaxExactN bounds the segment count for the exact Theorem 5.1 evaluation
// (the sum has n! terms).
const MaxExactN = 9

// validateLengths checks a segment-length vector.
func validateLengths(lengths []int) error {
	if len(lengths) < 2 {
		return fmt.Errorf("%w: need at least 2 segments, got %d", ErrBadInput, len(lengths))
	}
	for i, g := range lengths {
		if g < 0 {
			return fmt.Errorf("%w: segment %d has negative length %d", ErrBadInput, i, g)
		}
	}
	return nil
}

// Placement is one sampled outcome of the shift process.
type Placement struct {
	// Shifts[i] is the sampled translation of segment i.
	Shifts []int
	// Lengths[i] is the segment's length γᵢ (copied from the input).
	Lengths []int
}

// Disjoint reports whether all shifted closed segments are mutually
// disjoint — the event A(γ̄).
func (p *Placement) Disjoint() bool {
	n := len(p.Shifts)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if overlap(p.Shifts[i], p.Shifts[i]+p.Lengths[i], p.Shifts[j], p.Shifts[j]+p.Lengths[j]) {
				return false
			}
		}
	}
	return true
}

// overlap reports whether closed integer intervals [a1,a2] and [b1,b2]
// intersect.
func overlap(a1, a2, b1, b2 int) bool {
	return a1 <= b2 && b1 <= a2
}

// Sample draws one shift-process outcome for the given segment lengths.
func Sample(lengths []int, src *rng.Source) (*Placement, error) {
	if err := validateLengths(lengths); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("%w: nil rng source", ErrBadInput)
	}
	g := dist.StandardShift()
	p := &Placement{
		Shifts:  make([]int, len(lengths)),
		Lengths: make([]int, len(lengths)),
	}
	copy(p.Lengths, lengths)
	for i := range lengths {
		p.Shifts[i] = g.Sample(src)
	}
	return p, nil
}

// DisjointTrial samples one outcome and reports whether A(γ̄) held.
func DisjointTrial(lengths []int, src *rng.Source) (bool, error) {
	p, err := Sample(lengths, src)
	if err != nil {
		return false, err
	}
	return p.Disjoint(), nil
}

// ExactTheorem51 evaluates the closed form of Theorem 5.1:
//
//	Pr[A(γ̄)] = 2^-(C(n+1,2)-1) / Π_{i=1}^{n-1}(1 − 2^-(n+1-i))
//	           · Σ_{σ∈Sym_n} Π_{i=1}^{n-1} 2^-(n-i)·γ_σ(i).
func ExactTheorem51(lengths []int) (float64, error) {
	if err := validateLengths(lengths); err != nil {
		return 0, err
	}
	n := len(lengths)
	if n > MaxExactN {
		return 0, fmt.Errorf("%w: n=%d exceeds exact limit %d", ErrBadInput, n, MaxExactN)
	}
	prefactor := normalizationConstant(n)
	sum := 0.0
	err := combin.Permutations(n, func(perm []int) bool {
		term := 1.0
		for i := 1; i <= n-1; i++ {
			// σ(i) is the segment with the i-th largest shift; perm is
			// 0-indexed.
			term *= math.Pow(2, -float64((n-i)*lengths[perm[i-1]]))
		}
		sum += term
		return true
	})
	if err != nil {
		return 0, fmt.Errorf("shift: %w", err)
	}
	return prefactor * sum, nil
}

// normalizationConstant returns 2^-(C(n+1,2)-1) / Π_{i=1}^{n-1}(1−2^-(n+1-i)).
func normalizationConstant(n int) float64 {
	num := math.Pow(2, -(float64(n+1)*float64(n)/2 - 1))
	den := 1.0
	for i := 1; i <= n-1; i++ {
		den *= 1 - math.Pow(2, -float64(n+1-i))
	}
	return num / den
}

// CorollaryC returns c(n) from Corollary 5.2, defined by
// Pr[A(γ̄)] = c(n)·2^-C(n+1,2)·Σ_σ Π 2^-(n-i)γ_σ(i); the corollary proves
// c(n) ∈ [2, 4] with c(2) = 8/3 exactly.
func CorollaryC(n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("%w: n=%d", ErrBadInput, n)
	}
	// c(n) = 2 / Π_{i=1}^{n-1}(1 − 2^-(n+1-i)).
	den := 1.0
	for i := 1; i <= n-1; i++ {
		den *= 1 - math.Pow(2, -float64(n+1-i))
	}
	return 2 / den, nil
}

// ExactBruteForce computes Pr[A(γ̄)] by summing the joint shift PMF over
// all shift vectors with every sᵢ ≤ bound, and returns the estimate
// together with a rigorous upper bound on the truncation error
// (n · Pr[s > bound] = n · 2^-(bound+1)).
//
// It is an independent check of Theorem 5.1 (it never references the
// formula), so the two agreeing to within tailBound validates the theorem
// numerically.
func ExactBruteForce(lengths []int, bound int) (estimate, tailBound float64, err error) {
	if err := validateLengths(lengths); err != nil {
		return 0, 0, err
	}
	if bound < 0 {
		return 0, 0, fmt.Errorf("%w: bound=%d", ErrBadInput, bound)
	}
	n := len(lengths)
	if cost := math.Pow(float64(bound+1), float64(n)); cost > 5e8 {
		return 0, 0, fmt.Errorf("%w: (bound+1)^n = %.3g too large", ErrBadInput, cost)
	}
	shifts := make([]int, n)
	total := 0.0
	var recur func(i int, weight float64)
	recur = func(i int, weight float64) {
		if i == n {
			p := Placement{Shifts: shifts, Lengths: lengths}
			if p.Disjoint() {
				total += weight
			}
			return
		}
		for s := 0; s <= bound; s++ {
			shifts[i] = s
			recur(i+1, weight*math.Pow(2, -float64(s+1)))
		}
	}
	recur(0, 1)
	return total, float64(n) * math.Pow(2, -float64(bound+1)), nil
}

// Theorem61 evaluates the identically-distributed-lengths form of Theorem
// 6.1: Pr[A(Γ̄)] = c(n)·2^-C(n+1,2)·n!·E[Π_{i=1}^{n-1} 2^-i·Γᵢ], where the
// caller supplies the expectation term (exactly for independent windows, or
// estimated by Monte Carlo for dependent ones).
func Theorem61(n int, productExpectation float64) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("%w: n=%d", ErrBadInput, n)
	}
	if !(0 <= productExpectation && productExpectation <= 1) { // NaN fails too
		return 0, fmt.Errorf("%w: expectation %v not in [0,1]", ErrBadInput, productExpectation)
	}
	c, err := CorollaryC(n)
	if err != nil {
		return 0, err
	}
	logTerm := -float64(n+1) * float64(n) / 2 * math.Ln2
	return c * math.Exp(logTerm) * combin.Factorial(n) * productExpectation, nil
}
