package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"memreliability/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Fatal("zero-value Summary not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Unbiased variance of this classic data set is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	src := rng.New(77)
	f := func(n uint8) bool {
		count := int(n%50) + 2
		var s Summary
		data := make([]float64, count)
		for i := range data {
			data[i] = src.NormFloat64() * 10
			s.Add(data[i])
		}
		mean := 0.0
		for _, x := range data {
			mean += x
		}
		mean /= float64(count)
		variance := 0.0
		for _, x := range data {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(count - 1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Variance()-variance) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCI(t *testing.T) {
	var s Summary
	src := rng.New(78)
	for i := 0; i < 10000; i++ {
		s.Add(src.NormFloat64() + 3)
	}
	lo, hi, err := s.MeanCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 3 || hi < 3 {
		t.Errorf("95%% CI [%v, %v] misses true mean 3", lo, hi)
	}
	if hi-lo > 0.1 {
		t.Errorf("CI too wide: %v", hi-lo)
	}
	if _, _, err := s.MeanCI(1.5); !errors.Is(err, ErrBadInput) {
		t.Error("level 1.5 accepted")
	}
}

func TestProportionBasics(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 {
		t.Error("empty estimate != 0")
	}
	lo, hi, err := p.WilsonCI(0.95)
	if err != nil || lo != 0 || hi != 1 {
		t.Errorf("empty Wilson CI = [%v,%v], %v", lo, hi, err)
	}
	for i := 0; i < 100; i++ {
		p.Record(i < 30)
	}
	if p.Successes() != 30 || p.Trials() != 100 {
		t.Errorf("counts %d/%d", p.Successes(), p.Trials())
	}
	if p.Estimate() != 0.3 {
		t.Errorf("Estimate = %v", p.Estimate())
	}
}

func TestAddCountsValidation(t *testing.T) {
	var p Proportion
	if err := p.AddCounts(5, 3); !errors.Is(err, ErrBadInput) {
		t.Error("successes > trials accepted")
	}
	if err := p.AddCounts(-1, 3); !errors.Is(err, ErrBadInput) {
		t.Error("negative successes accepted")
	}
	if err := p.AddCounts(3, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddCounts(2, 10); err != nil {
		t.Fatal(err)
	}
	if p.Estimate() != 0.25 {
		t.Errorf("merged estimate %v", p.Estimate())
	}
}

func TestWilsonCoverage(t *testing.T) {
	// Across many simulated experiments with true p = 0.13 (≈ the paper's
	// n=2 probabilities), the 95% Wilson interval should cover p roughly
	// 95% of the time.
	src := rng.New(79)
	const experiments, trials = 800, 400
	covered := 0
	for e := 0; e < experiments; e++ {
		var p Proportion
		for i := 0; i < trials; i++ {
			p.Record(src.Bool(0.13))
		}
		ok, err := p.Contains(0.13, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			covered++
		}
	}
	rate := float64(covered) / experiments
	if rate < 0.91 || rate > 0.99 {
		t.Errorf("Wilson coverage = %v, want ≈0.95", rate)
	}
}

func TestWilsonCIBounds(t *testing.T) {
	var p Proportion
	for i := 0; i < 50; i++ {
		p.Record(true)
	}
	lo, hi, err := p.WilsonCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0 || hi > 1 || lo >= hi {
		t.Errorf("degenerate CI [%v, %v]", lo, hi)
	}
	if hi != 1 {
		t.Errorf("all-success upper bound %v, want 1", hi)
	}
}

func TestZScoreBisectionMatchesTable(t *testing.T) {
	// Non-tabulated level should agree with the erf identity.
	z, err := zScore(0.9544997361036416) // 2 sigma
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-2) > 1e-6 {
		t.Errorf("zScore(2σ level) = %v, want 2", z)
	}
}

// TestZScoreMemoBitIdentical pins the memoization contract: the value
// zScore returns for a non-tabulated level — first call (fresh
// bisection) and every call after (memo hit) — is bit-identical to a
// direct bisection. Adaptive stopping calls zScore once per round, so a
// drifting memo would silently change stopping decisions.
func TestZScoreMemoBitIdentical(t *testing.T) {
	for _, level := range []float64{0.97, 0.8, 0.9973002039367398} {
		fresh := zScoreBisect(level)
		first, err := zScore(level)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := zScore(level)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(first) != math.Float64bits(fresh) ||
			math.Float64bits(memo) != math.Float64bits(fresh) {
			t.Errorf("level %v: fresh %x, first %x, memoized %x — not bit-identical",
				level, math.Float64bits(fresh), math.Float64bits(first), math.Float64bits(memo))
		}
	}
	// Tabulated levels bypass both the memo and the bisection.
	z, err := zScore(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if z != 2.5758293035489004 {
		t.Errorf("tabulated zScore(0.99) = %v", z)
	}
}

func TestChiSquareUniformFit(t *testing.T) {
	src := rng.New(81)
	const n, buckets = 60000, 6
	observed := make([]int, buckets)
	expected := make([]float64, buckets)
	for i := range expected {
		expected[i] = 1.0 / buckets
	}
	for i := 0; i < n; i++ {
		observed[src.Intn(buckets)]++
	}
	stat, dof, err := ChiSquare(observed, expected, 5)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := ChiSquareCritical95(dof)
	if err != nil {
		t.Fatal(err)
	}
	if stat > crit {
		t.Errorf("uniform data rejected: stat %v > crit %v (dof %d)", stat, crit, dof)
	}
}

func TestChiSquareDetectsBias(t *testing.T) {
	observed := []int{900, 100}
	expected := []float64{0.5, 0.5}
	stat, dof, err := ChiSquare(observed, expected, 5)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := ChiSquareCritical95(dof)
	if err != nil {
		t.Fatal(err)
	}
	if stat <= crit {
		t.Errorf("biased data accepted: stat %v <= crit %v", stat, crit)
	}
}

func TestChiSquarePooling(t *testing.T) {
	// Last bins have tiny expectation; they must pool rather than blow up.
	observed := []int{500, 480, 15, 3, 2}
	expected := []float64{0.5, 0.48, 0.012, 0.005, 0.003}
	// minExpected=10 pools the last two bins (expected 5 and 3) into one.
	_, dof, err := ChiSquare(observed, expected, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dof >= 4 {
		t.Errorf("dof = %d, expected pooling to reduce it", dof)
	}
}

func TestChiSquareValidation(t *testing.T) {
	if _, _, err := ChiSquare([]int{1}, []float64{0.5, 0.5}, 5); !errors.Is(err, ErrBadInput) {
		t.Error("length mismatch accepted")
	}
	if _, _, err := ChiSquare([]int{-1, 2}, []float64{0.5, 0.5}, 5); !errors.Is(err, ErrBadInput) {
		t.Error("negative count accepted")
	}
	if _, _, err := ChiSquare([]int{0, 0}, []float64{0.5, 0.5}, 5); !errors.Is(err, ErrBadInput) {
		t.Error("empty observations accepted")
	}
}

func TestChiSquareCritical95(t *testing.T) {
	if _, err := ChiSquareCritical95(0); !errors.Is(err, ErrBadInput) {
		t.Error("dof 0 accepted")
	}
	v, err := ChiSquareCritical95(1)
	if err != nil || math.Abs(v-3.841) > 0.001 {
		t.Errorf("crit(1) = %v, %v", v, err)
	}
	// Wilson-Hilferty for dof 30: true value 43.773.
	v, err = ChiSquareCritical95(30)
	if err != nil || math.Abs(v-43.773) > 0.5 {
		t.Errorf("crit(30) = %v, %v", v, err)
	}
}

func TestHistogram(t *testing.T) {
	if _, err := NewHistogram(0); !errors.Is(err, ErrBadInput) {
		t.Error("0 buckets accepted")
	}
	h, err := NewHistogram(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 1, 3, 9, 12} {
		if err := h.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Observe(-1); !errors.Is(err, ErrBadInput) {
		t.Error("negative observation accepted")
	}
	if h.Count(1) != 2 || h.Count(0) != 1 || h.Count(2) != 0 {
		t.Error("bucket counts wrong")
	}
	if h.Overflow() != 2 || h.Total() != 6 {
		t.Errorf("overflow %d total %d", h.Overflow(), h.Total())
	}
	if math.Abs(h.Freq(1)-2.0/6.0) > 1e-12 {
		t.Errorf("Freq(1) = %v", h.Freq(1))
	}
	if h.Buckets() != 4 {
		t.Errorf("Buckets = %d", h.Buckets())
	}

	merged, err := NewHistogram(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := merged.Merge(h); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count(1) != 4 || merged.Count(3) != 2 || merged.Overflow() != 4 || merged.Total() != 12 {
		t.Errorf("merged twice: counts %d %d, overflow %d, total %d",
			merged.Count(1), merged.Count(3), merged.Overflow(), merged.Total())
	}
	narrow, err := NewHistogram(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.Merge(h); !errors.Is(err, ErrBadInput) {
		t.Errorf("merging 4 buckets into 3: err = %v, want ErrBadInput", err)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{3, 1, 2}
	q, err := Quantile(data, 0.5)
	if err != nil || q != 2 {
		t.Errorf("median = %v, %v", q, err)
	}
	// Input must not be mutated.
	if data[0] != 3 {
		t.Error("Quantile sorted caller data")
	}
	if q, err := Quantile([]float64{5}, 0.99); err != nil || q != 5 {
		t.Errorf("single-element quantile = %v, %v", q, err)
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrBadInput) {
		t.Error("empty data accepted")
	}
	if _, err := Quantile(data, 1.5); !errors.Is(err, ErrBadInput) {
		t.Error("q=1.5 accepted")
	}
	if _, err := Quantile(data, math.NaN()); !errors.Is(err, ErrBadInput) {
		t.Error("q=NaN accepted")
	}
	q, err = Quantile([]float64{0, 10}, 0.25)
	if err != nil || math.Abs(q-2.5) > 1e-12 {
		t.Errorf("interpolated quantile = %v, %v", q, err)
	}
}
