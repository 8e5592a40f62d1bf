// Package stats provides the summary statistics, confidence intervals, and
// goodness-of-fit tests used to validate the paper's analytic results
// against Monte Carlo estimates.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ErrBadInput reports statistically invalid input (empty samples, negative
// counts, malformed probability vectors).
var ErrBadInput = errors.New("stats: bad input")

// Summary accumulates count, mean, and variance online (Welford's method),
// so million-sample Monte Carlo runs need O(1) memory.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// MeanCI returns a normal-approximation confidence interval for the mean at
// the given confidence level (e.g. 0.95).
func (s *Summary) MeanCI(level float64) (lo, hi float64, err error) {
	z, err := zScore(level)
	if err != nil {
		return 0, 0, err
	}
	half := z * s.StdErr()
	return s.mean - half, s.mean + half, nil
}

// MergeSummaries combines two summaries exactly, using Chan et al.'s
// parallel Welford update, so per-worker summaries can be folded into one.
func MergeSummaries(a, b Summary) Summary {
	if a.n == 0 {
		return b
	}
	if b.n == 0 {
		return a
	}
	var out Summary
	out.n = a.n + b.n
	delta := b.mean - a.mean
	out.mean = a.mean + delta*float64(b.n)/float64(out.n)
	out.m2 = a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(out.n)
	out.min = math.Min(a.min, b.min)
	out.max = math.Max(a.max, b.max)
	return out
}

// Proportion is a success/trial counter with Wilson confidence intervals —
// the estimator every Pr[A] and Pr[B_γ] experiment reports.
type Proportion struct {
	successes int
	trials    int
}

// Record adds one trial with the given outcome.
func (p *Proportion) Record(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// AddCounts merges pre-aggregated counts (used when joining worker results).
// It returns ErrBadInput for negative counts or successes > trials.
func (p *Proportion) AddCounts(successes, trials int) error {
	if successes < 0 || trials < 0 || successes > trials {
		return fmt.Errorf("%w: AddCounts(%d, %d)", ErrBadInput, successes, trials)
	}
	p.successes += successes
	p.trials += trials
	return nil
}

// Successes returns the success count.
func (p *Proportion) Successes() int { return p.successes }

// Trials returns the trial count.
func (p *Proportion) Trials() int { return p.trials }

// Estimate returns the point estimate successes/trials (0 when empty).
func (p *Proportion) Estimate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// WilsonCI returns the Wilson score interval at the given confidence level.
// Unlike the Wald interval it behaves sensibly for proportions near 0 or 1,
// which matters for the deep-tail Pr[B_γ] measurements.
func (p *Proportion) WilsonCI(level float64) (lo, hi float64, err error) {
	z, err := zScore(level)
	if err != nil {
		return 0, 0, err
	}
	if p.trials == 0 {
		return 0, 1, nil
	}
	n := float64(p.trials)
	phat := p.Estimate()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

// Contains reports whether the Wilson interval at the given level contains
// the value v.
func (p *Proportion) Contains(v, level float64) (bool, error) {
	lo, hi, err := p.WilsonCI(level)
	if err != nil {
		return false, err
	}
	return v >= lo && v <= hi, nil
}

// zScoreMemo caches bisection results per confidence level, so
// non-tabulated levels pay the 200-iteration solve once per process
// instead of once per interval (adaptive stopping evaluates an interval
// every round). The memo is bounded: confidence levels reach services
// from client requests, and an unbounded map keyed by client-controlled
// floats would be a slow memory leak in a long-running daemon. Beyond
// the cap new levels simply recompute.
var (
	zScoreMu   sync.RWMutex
	zScoreMemo = make(map[float64]float64)
)

// zScoreMemoMax bounds the memo's entry count.
const zScoreMemoMax = 1024

// zScore returns the two-sided standard-normal quantile for a confidence
// level. Common levels are tabulated exactly; others are computed by
// bisection on the error function and memoized — the memoized value is
// bit-identical to a fresh bisection, since the solve is deterministic.
func zScore(level float64) (float64, error) {
	if !(level > 0 && level < 1) {
		return 0, fmt.Errorf("%w: confidence level %v not in (0,1)", ErrBadInput, level)
	}
	switch level {
	case 0.90:
		return 1.6448536269514722, nil
	case 0.95:
		return 1.959963984540054, nil
	case 0.99:
		return 2.5758293035489004, nil
	case 0.999:
		return 3.2905267314918945, nil
	}
	zScoreMu.RLock()
	z, ok := zScoreMemo[level]
	zScoreMu.RUnlock()
	if ok {
		return z, nil
	}
	z = zScoreBisect(level)
	zScoreMu.Lock()
	if len(zScoreMemo) < zScoreMemoMax {
		zScoreMemo[level] = z
	}
	zScoreMu.Unlock()
	return z, nil
}

// zScoreBisect solves Φ(z) = (1+level)/2 by bisection;
// Φ(z) = (1+erf(z/√2))/2. Deterministic, so memoizing its result is
// lossless.
func zScoreBisect(level float64) float64 {
	target := (1 + level) / 2
	lo, hi := 0.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if (1+math.Erf(mid/math.Sqrt2))/2 < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ChiSquare performs Pearson's chi-square goodness-of-fit test of observed
// counts against expected probabilities. It returns the test statistic and
// the degrees of freedom used. Bins with expected count below minExpected
// are pooled into the final bin, the standard validity adjustment.
func ChiSquare(observed []int, expected []float64, minExpected float64) (statistic float64, dof int, err error) {
	if len(observed) != len(expected) || len(observed) == 0 {
		return 0, 0, fmt.Errorf("%w: observed/expected length mismatch (%d vs %d)",
			ErrBadInput, len(observed), len(expected))
	}
	total := 0
	for _, o := range observed {
		if o < 0 {
			return 0, 0, fmt.Errorf("%w: negative observed count %d", ErrBadInput, o)
		}
		total += o
	}
	probSum := 0.0
	for _, e := range expected {
		if e < 0 || math.IsNaN(e) {
			return 0, 0, fmt.Errorf("%w: bad expected probability %v", ErrBadInput, e)
		}
		probSum += e
	}
	if total == 0 || probSum == 0 {
		return 0, 0, fmt.Errorf("%w: empty observation or probability mass", ErrBadInput)
	}

	// Pool small-expectation bins.
	type bin struct {
		obs int
		exp float64
	}
	var bins []bin
	var pooled bin
	for i := range observed {
		exp := expected[i] / probSum * float64(total)
		if exp < minExpected {
			pooled.obs += observed[i]
			pooled.exp += exp
		} else {
			bins = append(bins, bin{observed[i], exp})
		}
	}
	if pooled.exp > 0 {
		bins = append(bins, pooled)
	}
	if len(bins) < 2 {
		return 0, 0, fmt.Errorf("%w: fewer than 2 usable bins after pooling", ErrBadInput)
	}
	stat := 0.0
	for _, b := range bins {
		diff := float64(b.obs) - b.exp
		stat += diff * diff / b.exp
	}
	return stat, len(bins) - 1, nil
}

// ChiSquareCritical95 returns the 95th-percentile critical value of the
// chi-square distribution with the given degrees of freedom, via the
// Wilson-Hilferty approximation (accurate to ~1% for dof ≥ 3, tabulated for
// smaller dof).
func ChiSquareCritical95(dof int) (float64, error) {
	if dof < 1 {
		return 0, fmt.Errorf("%w: dof=%d", ErrBadInput, dof)
	}
	table := []float64{0, 3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067, 15.507, 16.919, 18.307}
	if dof < len(table) {
		return table[dof], nil
	}
	// Wilson-Hilferty: χ²_p ≈ dof · (1 − 2/(9·dof) + z_p·√(2/(9·dof)))³.
	const z95 = 1.6448536269514722
	d := float64(dof)
	t := 1 - 2/(9*d) + z95*math.Sqrt(2/(9*d))
	return d * t * t * t, nil
}

// Histogram counts integer-valued observations in [0, len)-indexed buckets
// with an overflow bucket.
type Histogram struct {
	counts   []int
	overflow int
	total    int
}

// NewHistogram returns a histogram with the given number of buckets.
func NewHistogram(buckets int) (*Histogram, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("%w: buckets=%d", ErrBadInput, buckets)
	}
	return &Histogram{counts: make([]int, buckets)}, nil
}

// Observe records a non-negative integer observation; values beyond the
// bucket range land in the overflow bucket. Negative values are rejected.
func (h *Histogram) Observe(v int) error {
	if v < 0 {
		return fmt.Errorf("%w: negative observation %d", ErrBadInput, v)
	}
	if v < len(h.counts) {
		h.counts[v]++
	} else {
		h.overflow++
	}
	h.total++
	return nil
}

// Merge adds every count of o, which must have the same number of
// buckets, to h.
func (h *Histogram) Merge(o *Histogram) error {
	if len(o.counts) != len(h.counts) {
		return fmt.Errorf("%w: merging %d buckets into %d", ErrBadInput, len(o.counts), len(h.counts))
	}
	for v, n := range o.counts {
		h.counts[v] += n
	}
	h.overflow += o.overflow
	h.total += o.total
	return nil
}

// Count returns the count in bucket v (0 if out of range).
func (h *Histogram) Count(v int) int {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Overflow returns the overflow-bucket count.
func (h *Histogram) Overflow() int { return h.overflow }

// Total returns the total number of observations.
func (h *Histogram) Total() int { return h.total }

// Freq returns the empirical frequency of bucket v.
func (h *Histogram) Freq(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Buckets returns the number of regular buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Quantile returns the q-th sample quantile (0 ≤ q ≤ 1) of a data set using
// linear interpolation. The input is copied and sorted.
func Quantile(data []float64, q float64) (float64, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("%w: empty data", ErrBadInput)
	}
	if !(0 <= q && q <= 1) { // NaN fails too
		return 0, fmt.Errorf("%w: quantile %v", ErrBadInput, q)
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1], nil
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac, nil
}
