package settle

import (
	"errors"
	"math"
	"testing"

	"memreliability/internal/memmodel"
	"memreliability/internal/prog"
	"memreliability/internal/rng"
)

func TestConditionalWindowDistValidation(t *testing.T) {
	if _, err := ConditionalWindowDist(memmodel.Model{}, nil, 0.5); !errors.Is(err, ErrBadInput) {
		t.Error("zero model accepted")
	}
	if _, err := ConditionalWindowDist(memmodel.SC(), nil, 1.5); !errors.Is(err, ErrBadInput) {
		t.Error("bad s accepted")
	}
	if _, err := ConditionalWindowDist(memmodel.SC(), nil, math.NaN()); !errors.Is(err, ErrBadInput) {
		t.Error("NaN s accepted")
	}
	fence := []memmodel.OpType{memmodel.FenceAcquire}
	if _, err := ConditionalWindowDist(memmodel.WO(), fence, 0.5); !errors.Is(err, ErrBadInput) {
		t.Error("fence prefix accepted")
	}
	long := make([]memmodel.OpType, 30)
	for i := range long {
		long[i] = memmodel.Load
	}
	if _, err := ConditionalWindowDist(memmodel.SC(), long, 0.5); !errors.Is(err, ErrBadInput) {
		t.Error("huge prefix accepted")
	}
}

func TestConditionalWindowDistMassIsOne(t *testing.T) {
	prefixes := [][]memmodel.OpType{
		{},
		{memmodel.Store},
		{memmodel.Store, memmodel.Store, memmodel.Load},
		{memmodel.Load, memmodel.Store, memmodel.Store, memmodel.Store, memmodel.Load},
	}
	for _, model := range memmodel.All() {
		for _, prefix := range prefixes {
			pmf, err := ConditionalWindowDist(model, prefix, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pmf.Total()-1) > 1e-12 {
				t.Errorf("%s prefix %v: mass %v", model.Name(), prefix, pmf.Total())
			}
		}
	}
}

func TestConditionalWindowDistTSOAllStores(t *testing.T) {
	// With an all-ST prefix under TSO nothing in the prefix moves, the
	// critical LD passes k STs with probability 2^-(k+1) (2^-m at the
	// top), and the critical ST never moves: Pr[B_γ] = 2^-(γ+1) for γ < m,
	// 2^-m at γ = m.
	const m = 6
	prefix := make([]memmodel.OpType, m)
	for i := range prefix {
		prefix[i] = memmodel.Store
	}
	pmf, err := ConditionalWindowDist(memmodel.TSO(), prefix, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for gamma := 0; gamma < m; gamma++ {
		want := math.Pow(2, -float64(gamma+1))
		if got := pmf.At(gamma); math.Abs(got-want) > 1e-12 {
			t.Errorf("Pr[B_%d] = %v, want %v", gamma, got, want)
		}
	}
	if got := pmf.At(m); math.Abs(got-math.Pow(2, -m)) > 1e-12 {
		t.Errorf("Pr[B_%d] = %v, want 2^-%d", m, got, m)
	}
}

func TestConditionalWindowDistTSOAllLoads(t *testing.T) {
	// With an all-LD prefix under TSO the critical LD is blocked
	// immediately: the window never grows.
	prefix := []memmodel.OpType{memmodel.Load, memmodel.Load, memmodel.Load}
	pmf, err := ConditionalWindowDist(memmodel.TSO(), prefix, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := pmf.At(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pr[B_0] = %v, want 1", got)
	}
}

func TestConditionalAveragesToUnconditional(t *testing.T) {
	// Mixing the conditional DP over all 2^m programs weighted by
	// Bernoulli(p) must reproduce the unconditional DP.
	const m = 8
	for _, model := range memmodel.All() {
		want, err := ExactWindowDist(model, m, 0.5, 0.5, m)
		if err != nil {
			t.Fatal(err)
		}
		mixed := make([]float64, m+1)
		prefix := make([]memmodel.OpType, m)
		for mask := 0; mask < 1<<m; mask++ {
			for i := 0; i < m; i++ {
				if mask&(1<<i) != 0 {
					prefix[i] = memmodel.Store
				} else {
					prefix[i] = memmodel.Load
				}
			}
			pmf, err := ConditionalWindowDist(model, prefix, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			w := math.Pow(0.5, m)
			for g := 0; g <= m; g++ {
				mixed[g] += w * pmf.At(g)
			}
		}
		for g := 0; g <= m; g++ {
			if math.Abs(mixed[g]-want.At(g)) > 1e-10 {
				t.Errorf("%s: mixed Pr[B_%d] = %v, unconditional %v",
					model.Name(), g, mixed[g], want.At(g))
			}
		}
	}
}

func TestConditionalMatchesSamplerOnFixedProgram(t *testing.T) {
	// Empirical windows from settling one fixed program must match the
	// conditional DP.
	prefix := []memmodel.OpType{
		memmodel.Store, memmodel.Load, memmodel.Store, memmodel.Store,
		memmodel.Store, memmodel.Load, memmodel.Store,
	}
	p, err := prog.FromTypes(prefix)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(21)
	for _, model := range memmodel.All() {
		pmf, err := ConditionalWindowDist(model, prefix, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		const trials = 100000
		counts := make([]int, len(prefix)+1)
		for i := 0; i < trials; i++ {
			res, err := Settle(p, model, DefaultOptions(), src)
			if err != nil {
				t.Fatal(err)
			}
			counts[res.WindowGamma()]++
		}
		for g := 0; g <= 4; g++ {
			want := pmf.At(g)
			got := float64(counts[g]) / trials
			tol := 4*math.Sqrt(want*(1-want)/trials) + 1e-3
			if math.Abs(got-want) > tol {
				t.Errorf("%s: empirical Pr[B_%d|prog] = %v, DP %v", model.Name(), g, got, want)
			}
		}
	}
}
