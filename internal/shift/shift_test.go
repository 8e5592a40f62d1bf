package shift

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"memreliability/internal/mc"
	"memreliability/internal/rng"
)

func TestValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := Sample([]int{2}, src); !errors.Is(err, ErrBadInput) {
		t.Error("single segment accepted")
	}
	if _, err := Sample([]int{2, -1}, src); !errors.Is(err, ErrBadInput) {
		t.Error("negative length accepted")
	}
	if _, err := Sample([]int{2, 2}, nil); !errors.Is(err, ErrBadInput) {
		t.Error("nil source accepted")
	}
	if _, err := ExactTheorem51([]int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}); !errors.Is(err, ErrBadInput) {
		t.Error("n=10 exact accepted")
	}
	if _, _, err := ExactBruteForce([]int{2, 2}, -1); !errors.Is(err, ErrBadInput) {
		t.Error("negative bound accepted")
	}
	if _, _, err := ExactBruteForce([]int{1, 1, 1, 1, 1, 1, 1, 1}, 100); !errors.Is(err, ErrBadInput) {
		t.Error("explosive brute force accepted")
	}
	if _, err := CorollaryC(1); !errors.Is(err, ErrBadInput) {
		t.Error("c(1) accepted")
	}
	if _, err := Theorem61(1, 0.5); !errors.Is(err, ErrBadInput) {
		t.Error("Theorem61 n=1 accepted")
	}
	if _, err := Theorem61(2, math.NaN()); !errors.Is(err, ErrBadInput) {
		t.Error("Theorem61 NaN expectation accepted")
	}
	if _, err := Theorem61(3, 1.5); !errors.Is(err, ErrBadInput) {
		t.Error("Theorem61 expectation 1.5 accepted")
	}
}

func TestDisjointLogic(t *testing.T) {
	cases := []struct {
		shifts, lengths []int
		want            bool
	}{
		{[]int{0, 5}, []int{2, 2}, true},  // [0,2] and [5,7]
		{[]int{0, 2}, []int{2, 2}, false}, // share point 2
		{[]int{0, 3}, []int{2, 2}, true},  // [0,2] and [3,5]
		{[]int{4, 0}, []int{1, 2}, true},  // order independent
		{[]int{0, 0}, []int{0, 0}, false}, // identical points
		{[]int{0, 1}, []int{0, 0}, true},  // distinct points
		{[]int{0, 10, 4}, []int{2, 2, 2}, true},
		{[]int{0, 10, 2}, []int{2, 2, 2}, false}, // third touches first
	}
	for _, tc := range cases {
		p := Placement{Shifts: tc.shifts, Lengths: tc.lengths}
		if got := p.Disjoint(); got != tc.want {
			t.Errorf("Disjoint(shifts=%v, lengths=%v) = %v, want %v",
				tc.shifts, tc.lengths, got, tc.want)
		}
	}
}

func TestDisjointOrderInvariance(t *testing.T) {
	src := rng.New(2)
	f := func(seed uint32) bool {
		n := src.Intn(4) + 2
		shifts := make([]int, n)
		lengths := make([]int, n)
		for i := range shifts {
			shifts[i] = src.Intn(8)
			lengths[i] = src.Intn(5)
		}
		p := Placement{Shifts: shifts, Lengths: lengths}
		want := p.Disjoint()
		// Apply a random relabeling; disjointness must be invariant.
		perm := src.Perm(n)
		ps, pl := make([]int, n), make([]int, n)
		for i, j := range perm {
			ps[i], pl[i] = shifts[j], lengths[j]
		}
		q := Placement{Shifts: ps, Lengths: pl}
		return q.Disjoint() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExactTheorem51TwoSegments(t *testing.T) {
	// Hand-computable case γ=(2,2): Pr[A] = 1/6 (the SC value of
	// Theorem 6.2).
	got, err := ExactTheorem51([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/6.0) > 1e-12 {
		t.Errorf("Pr[A(2,2)] = %v, want 1/6", got)
	}
}

func TestExactTheorem51AgainstBruteForce(t *testing.T) {
	cases := [][]int{
		{0, 0}, {1, 0}, {2, 2}, {3, 1}, {5, 2},
		{2, 2, 2}, {3, 2, 5}, {0, 0, 0}, {1, 2, 3},
		{2, 2, 2, 2}, {1, 0, 2, 3},
	}
	for _, lengths := range cases {
		exact, err := ExactTheorem51(lengths)
		if err != nil {
			t.Fatal(err)
		}
		brute, tail, err := ExactBruteForce(lengths, 40)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-brute) > tail+1e-9 {
			t.Errorf("γ̄=%v: theorem %v vs brute force %v (tail %v)",
				lengths, exact, brute, tail)
		}
	}
}

func TestExactTheorem51AgainstMonteCarlo(t *testing.T) {
	for _, lengths := range [][]int{{2, 2}, {3, 2, 5}, {2, 4, 2, 3}} {
		lengths := lengths
		exact, err := ExactTheorem51(lengths)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.EstimateProbabilityBits(context.Background(),
			mc.Config{Trials: 400000, Seed: 42},
			mc.BitsFromTrial(func(src *rng.Source) (bool, error) {
				return DisjointTrial(lengths, src)
			}))
		if err != nil {
			t.Fatal(err)
		}
		ok, err := res.Proportion.Contains(exact, 0.999)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			lo, hi, _ := res.WilsonCI(0.999)
			t.Errorf("γ̄=%v: exact %v outside MC CI [%v, %v]", lengths, exact, lo, hi)
		}
	}
}

func TestCorollaryC(t *testing.T) {
	// c(2) = 8/3 exactly; c(n) ∈ [2, 4] for all n.
	c2, err := CorollaryC(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c2-8.0/3.0) > 1e-12 {
		t.Errorf("c(2) = %v, want 8/3", c2)
	}
	for n := 2; n <= 20; n++ {
		c, err := CorollaryC(n)
		if err != nil {
			t.Fatal(err)
		}
		if c < 2 || c > 4 {
			t.Errorf("c(%d) = %v outside [2,4]", n, c)
		}
	}
}

func TestCorollaryCConsistentWithTheorem51(t *testing.T) {
	// The corollary's restatement Pr[A] = c(n)·2^-C(n+1,2)·Σ_σ(...) must
	// equal the theorem's full form.
	lengths := []int{3, 1, 4}
	n := len(lengths)
	exact, err := ExactTheorem51(lengths)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CorollaryC(n)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the permutation sum.
	sum := 0.0
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		term := 1.0
		for i := 1; i <= n-1; i++ {
			term *= math.Pow(2, -float64((n-i)*lengths[perm[i-1]]))
		}
		sum += term
	}
	viaCorollary := c * math.Pow(2, -float64(n*(n+1))/2) * sum
	if math.Abs(viaCorollary-exact) > 1e-12 {
		t.Errorf("corollary form %v != theorem form %v", viaCorollary, exact)
	}
}

func TestTheorem61SCTwoThreads(t *testing.T) {
	// Under SC every segment length is exactly 2, so
	// E[Π 2^-iΓᵢ] = 2^-n(n-1) and Theorem 6.1 must reproduce 1/6 at n=2.
	got, err := Theorem61(2, math.Pow(2, -2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/6.0) > 1e-12 {
		t.Errorf("Theorem61(2, 1/4) = %v, want 1/6", got)
	}
}

func TestTheorem61MatchesExactForConstantLengths(t *testing.T) {
	// With deterministic identical lengths the Theorem 6.1 expectation
	// factorizes, so it must agree with Theorem 5.1 evaluated directly.
	for _, tc := range []struct {
		n, gamma int
	}{{2, 2}, {3, 2}, {4, 2}, {3, 4}, {5, 3}} {
		lengths := make([]int, tc.n)
		for i := range lengths {
			lengths[i] = tc.gamma
		}
		direct, err := ExactTheorem51(lengths)
		if err != nil {
			t.Fatal(err)
		}
		expectation := math.Pow(2, -float64(tc.gamma)*float64(tc.n)*float64(tc.n-1)/2)
		via61, err := Theorem61(tc.n, expectation)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct-via61) > 1e-12*math.Max(1, direct) {
			t.Errorf("n=%d γ=%d: direct %v vs Theorem61 %v", tc.n, tc.gamma, direct, via61)
		}
	}
}

func TestSampleShiftsAreGeometric(t *testing.T) {
	src := rng.New(3)
	counts := make([]int, 12)
	const trials = 200000
	for i := 0; i < trials; i++ {
		p, err := Sample([]int{2, 2}, src)
		if err != nil {
			t.Fatal(err)
		}
		if p.Shifts[0] < len(counts) {
			counts[p.Shifts[0]]++
		}
	}
	for k := 0; k < 6; k++ {
		want := math.Pow(2, -float64(k+1))
		got := float64(counts[k]) / trials
		if math.Abs(got-want) > 0.005 {
			t.Errorf("shift freq(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestSampleCopiesLengths(t *testing.T) {
	src := rng.New(4)
	lengths := []int{2, 3}
	p, err := Sample(lengths, src)
	if err != nil {
		t.Fatal(err)
	}
	lengths[0] = 99
	if p.Lengths[0] != 2 {
		t.Error("Placement aliases caller lengths")
	}
}

func TestNormalizationMonotoneDecreasing(t *testing.T) {
	// Pr[A(γ̄)] must not increase when any segment grows.
	base, err := ExactTheorem51([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := ExactTheorem51([]int{2, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if grown > base {
		t.Errorf("growing a segment increased Pr[A]: %v > %v", grown, base)
	}
}

func BenchmarkExactTheorem51N6(b *testing.B) {
	lengths := []int{2, 3, 2, 4, 2, 3}
	for i := 0; i < b.N; i++ {
		if _, err := ExactTheorem51(lengths); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisjointTrialN4(b *testing.B) {
	src := rng.New(1)
	lengths := []int{2, 3, 2, 4}
	for i := 0; i < b.N; i++ {
		if _, err := DisjointTrial(lengths, src); err != nil {
			b.Fatal(err)
		}
	}
}
