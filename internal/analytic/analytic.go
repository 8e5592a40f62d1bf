// Package analytic states the paper's closed-form results as executable
// formulas: Theorem 4.1 (critical-window growth per memory model), Lemma
// 4.2 and Claims 4.3/4.4 (the TSO machinery), Theorem 6.2 (two-thread bug
// probabilities), and Theorem 6.3 (the large-n asymptotics).
//
// Everything here is a statement of the paper's mathematics, independent of
// the simulation packages; the test suites and benchmark harness check the
// two against each other.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"memreliability/internal/combin"
	"memreliability/internal/dist"
	"memreliability/internal/shift"
)

// ErrOutOfDomain reports arguments outside a formula's domain.
var ErrOutOfDomain = errors.New("analytic: argument out of domain")

// Interval is a closed interval of probabilities; the paper's TSO results
// are stated as rigorous two-sided bounds rather than exact values.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Point returns a degenerate interval at v.
func Point(v float64) Interval { return Interval{Lo: v, Hi: v} }

// Midpoint returns (Lo+Hi)/2.
func (iv Interval) Midpoint() float64 { return (iv.Lo + iv.Hi) / 2 }

// --- Theorem 4.1: critical window growth Pr[B_γ] ---

// SCWindow returns Pr[B_γ] under Sequential Consistency: the window never
// grows.
func SCWindow(gamma int) (float64, error) {
	if gamma < 0 {
		return 0, fmt.Errorf("%w: γ=%d", ErrOutOfDomain, gamma)
	}
	if gamma == 0 {
		return 1, nil
	}
	return 0, nil
}

// WOWindow returns Pr[B_γ] under Weak Ordering: 2/3 at γ=0 and 2^-γ/3 for
// γ > 0.
func WOWindow(gamma int) (float64, error) {
	if gamma < 0 {
		return 0, fmt.Errorf("%w: γ=%d", ErrOutOfDomain, gamma)
	}
	if gamma == 0 {
		return 2.0 / 3.0, nil
	}
	return math.Pow(2, -float64(gamma)) / 3, nil
}

// TSORemainderBound is the paper's bound on the approximation term R(γ) in
// the TSO window growth: 0 ≤ R(γ) ≤ 2/21.
const TSORemainderBound = 2.0 / 21.0

// TSOWindow returns the rigorous interval for Pr[B_γ] under Total Store
// Order: exactly 2/3 at γ=0, and (6/7)·4^-γ + R(γ)·2^-γ with
// R(γ) ∈ [0, 2/21] for γ > 0.
func TSOWindow(gamma int) (Interval, error) {
	if gamma < 0 {
		return Interval{}, fmt.Errorf("%w: γ=%d", ErrOutOfDomain, gamma)
	}
	if gamma == 0 {
		return Point(2.0 / 3.0), nil
	}
	base := (6.0 / 7.0) * math.Pow(4, -float64(gamma))
	return Interval{
		Lo: base,
		Hi: base + TSORemainderBound*math.Pow(2, -float64(gamma)),
	}, nil
}

// WindowInterval returns Pr[B_γ] for a canonical model by name ("SC",
// "TSO", "WO"), as an interval (degenerate for SC and WO). PSO has no
// closed form in the paper (footnote 4); obtain its distribution from
// settle.ExactWindowDist.
func WindowInterval(modelName string, gamma int) (Interval, error) {
	switch modelName {
	case "SC":
		v, err := SCWindow(gamma)
		if err != nil {
			return Interval{}, err
		}
		return Point(v), nil
	case "WO":
		v, err := WOWindow(gamma)
		if err != nil {
			return Interval{}, err
		}
		return Point(v), nil
	case "TSO":
		return TSOWindow(gamma)
	default:
		return Interval{}, fmt.Errorf("%w: no closed-form window for model %q", ErrOutOfDomain, modelName)
	}
}

// --- Lemma 4.2 and the supporting claims ---

// Lemma42L0 is the exact value Pr[L_0] = 1/3 under TSO: the probability
// that no STs sit immediately above the critical LD in S_m.
const Lemma42L0 = 1.0 / 3.0

// Lemma42Lower returns the lemma's lower bound Pr[L_µ] ≥ (4/7)·2^-µ for
// µ ≥ 1.
func Lemma42Lower(mu int) (float64, error) {
	if mu < 1 {
		return 0, fmt.Errorf("%w: µ=%d (lemma requires µ ≥ 1)", ErrOutOfDomain, mu)
	}
	return (4.0 / 7.0) * math.Pow(2, -float64(mu)), nil
}

// Lemma42H returns h(µ), the parenthesized expression in the Lemma 4.2
// proof: h(µ) = 8/7 − (1−2^-(µ+1))^-1 + (2/3)·(1−2^-(µ+2))^-1, which is
// increasing with h(1) = 4/7.
func Lemma42H(mu int) (float64, error) {
	if mu < 1 {
		return 0, fmt.Errorf("%w: µ=%d", ErrOutOfDomain, mu)
	}
	return 8.0/7.0 -
		1/(1-math.Pow(2, -float64(mu+1))) +
		(2.0/3.0)/(1-math.Pow(2, -float64(mu+2))), nil
}

// Claim43Limit is the limiting bottom-of-program store density under TSO
// with p = s = 1/2 (Claim 4.3).
const Claim43Limit = 2.0 / 3.0

// Claim43Finite returns the exact finite-i value of Claim 4.3's recurrence:
// Pr[S_ST,i(i)] = 2/3 + (1/4)^(i-1)·(1/2 − 2/3), for round i ≥ 1.
func Claim43Finite(i int) (float64, error) {
	if i < 1 {
		return 0, fmt.Errorf("%w: round i=%d", ErrOutOfDomain, i)
	}
	return 2.0/3.0 + math.Pow(0.25, float64(i-1))*(0.5-2.0/3.0), nil
}

// PsiPMF returns Pr[Ψ_µ = q] = 2^-µ·2^-q·C(µ+q−1, q): the distribution of
// the number of LDs interspersed below the µ-th lowest non-critical ST
// (Step 2 of the Lemma 4.2 proof).
func PsiPMF(mu, q int) (float64, error) {
	if mu < 1 || q < 0 {
		return 0, fmt.Errorf("%w: PsiPMF(µ=%d, q=%d)", ErrOutOfDomain, mu, q)
	}
	return math.Pow(2, -float64(mu)) * math.Pow(2, -float64(q)) *
		combin.Binomial(mu+q-1, q), nil
}

// Claim44Lower returns the lower bound of Claim 4.4:
// Pr[F_µ|Ψ_µ=q] ≥ (2^-(q-1) − 2^-µq) / C(µ+q−1, q).
func Claim44Lower(mu, q int) (float64, error) {
	if mu < 1 || q < 0 {
		return 0, fmt.Errorf("%w: Claim44Lower(µ=%d, q=%d)", ErrOutOfDomain, mu, q)
	}
	if q == 0 {
		// With no interspersed LDs, F_µ holds with certainty.
		return 1, nil
	}
	return (math.Pow(2, -float64(q-1)) - math.Pow(2, -float64(mu*q))) /
		combin.Binomial(mu+q-1, q), nil
}

// Claim44Exact returns the exact value Pr[F_µ|Ψ_µ=q] =
// Σ_{δ=q}^{µq} φ(δ,q,µ)·2^-δ / C(µ+q−1, q), computable because the bounded
// partition numbers φ are exact integers (Step 4 of the proof).
func Claim44Exact(mu, q int) (float64, error) {
	if mu < 1 || q < 0 {
		return 0, fmt.Errorf("%w: Claim44Exact(µ=%d, q=%d)", ErrOutOfDomain, mu, q)
	}
	if q == 0 {
		return 1, nil
	}
	sum := 0.0
	for delta := q; delta <= mu*q; delta++ {
		phi, err := combin.BoundedPartitionsFloat(delta, q, mu)
		if err != nil {
			return 0, err
		}
		sum += phi * math.Pow(2, -float64(delta))
	}
	return sum / combin.Binomial(mu+q-1, q), nil
}

// --- Segment lengths and the §6 join ---

// SegmentMGF returns E[2^-Γ] = Σ_{γ≥0} 2^-(γ+2)·Pr[B_γ] computed from a
// tabulated window PMF, as an interval: the tabulated terms are summed
// exactly, and the untabulated tail mass (1 − pmf.Total(), supported on
// γ > L where L = pmf.Len()−1) contributes between 0 and 2^-(L+3) per unit
// of mass, giving rigorous two-sided bounds.
func SegmentMGF(pmf *dist.PMF) (Interval, error) {
	if pmf == nil {
		return Interval{}, fmt.Errorf("%w: nil PMF", ErrOutOfDomain)
	}
	sum := 0.0
	for gamma := 0; gamma < pmf.Len(); gamma++ {
		sum += math.Pow(2, -float64(gamma+2)) * pmf.At(gamma)
	}
	tail := 1 - pmf.Total()
	if tail < 0 {
		tail = 0
	}
	return Interval{
		Lo: sum,
		Hi: sum + tail*math.Pow(2, -float64(pmf.Len()+1)),
	}, nil
}

// SegmentMGFWO is the exact Weak Ordering value E[2^-Γ] = 7/36 (computed in
// the Theorem 6.2 proof).
const SegmentMGFWO = 7.0 / 36.0

// SegmentMGFSC is the exact Sequential Consistency value E[2^-Γ] = 1/4.
const SegmentMGFSC = 0.25

// SegmentMGFTSO returns the paper's interval for E[2^-Γ] under TSO:
// [1/6 + 3/98, 1/6 + 3/98 + (2/21)·(1/48)] — the lower end comes from
// R(γ) ≥ 0 and the upper end from R(γ) ≤ 2/21 via
// 4·Σ_{t≥3} R(t−2)·4^-t ≤ (2/21)·4·(4^-3)·(4/3).
func SegmentMGFTSO() Interval {
	lo := 1.0/6.0 + 3.0/98.0
	hi := lo + TSORemainderBound*4*math.Pow(4, -3)*(4.0/3.0)
	return Interval{Lo: lo, Hi: hi}
}

// --- Theorem 6.2: two threads ---

// Theorem62SC is Pr[A] under Sequential Consistency for n=2: exactly 1/6.
const Theorem62SC = 1.0 / 6.0

// Theorem62WO is Pr[A] under Weak Ordering for n=2: exactly 7/54.
const Theorem62WO = 7.0 / 54.0

// Theorem62TSO returns the paper's two-sided bound for Pr[A] under TSO at
// n=2: 58/441 < Pr[A] < 58/441 + 1/189 (i.e. 0.1315 < Pr[A] < 0.1369).
func Theorem62TSO() Interval {
	return Interval{Lo: 58.0 / 441.0, Hi: 58.0/441.0 + 1.0/189.0}
}

// TwoThreadPrA converts a segment-MGF interval into the n=2
// non-manifestation probability: Pr[A] = (2/3)·E[2^-Γ] (the Theorem 6.2
// derivation, using c(2) = 8/3 and symmetry of the two identically
// distributed windows).
func TwoThreadPrA(mgf Interval) Interval {
	return Interval{Lo: 2.0 / 3.0 * mgf.Lo, Hi: 2.0 / 3.0 * mgf.Hi}
}

// --- Theorem 6.3: many threads ---

// SCPrA returns the exact Pr[A] under Sequential Consistency for n ≥ 2
// threads: c(n)·2^-C(n+1,2)·n!·2^-2C(n,2) (every window has Γ=2). Computed
// in log space to stay finite for large n.
func SCPrA(n int) (float64, error) {
	logP, err := SCLogPrA(n)
	if err != nil {
		return 0, err
	}
	return math.Exp(logP), nil
}

// SCLogPrA returns ln Pr[A] under SC directly, usable when Pr[A] itself
// underflows: ln K(n) (shift.LogK) − 2C(n,2)·ln 2.
func SCLogPrA(n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("%w: n=%d", ErrOutOfDomain, n)
	}
	logK, err := shift.LogK(n)
	if err != nil {
		return 0, err
	}
	return logK - float64(n)*float64(n-1)*math.Ln2, nil
}

// AnyModelLogPrALower returns the Theorem 6.3 lower bound on ln Pr[A] valid
// in every memory model: by Claim B.2 every thread's window is minimal
// (Γ=2) with probability ≥ 1/2, so
// Pr[A] ≥ c(n)·2^-C(n+1,2)·n!·2^-2C(n,2)-(n-1).
func AnyModelLogPrALower(n int) (float64, error) {
	scLog, err := SCLogPrA(n)
	if err != nil {
		return 0, err
	}
	return scLog - float64(n-1)*math.Ln2, nil
}

// ClaimB2MinWindowLower is Claim B.2's per-thread bound: in every memory
// model Pr[B_0] ≥ 1/2 (the critical LD fails its first swap with
// probability at least 1/2).
const ClaimB2MinWindowLower = 0.5

// Theorem63Rate returns −ln Pr[A] / n², the normalized decay rate that
// Theorem 6.3 proves converges (to (3/2)·ln2·(1+o(1))) for every model.
func Theorem63Rate(logPrA float64, n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("%w: n=%d", ErrOutOfDomain, n)
	}
	if logPrA > 0 {
		return 0, fmt.Errorf("%w: logPrA=%v > 0", ErrOutOfDomain, logPrA)
	}
	return -logPrA / float64(n*n), nil
}

// Theorem63AsymptoticRate is the limiting value of −ln Pr[A] / n² under SC
// as proved in Theorem 6.3: (3/2)·ln 2.
var Theorem63AsymptoticRate = 1.5 * math.Ln2
