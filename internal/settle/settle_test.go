package settle

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"memreliability/internal/memmodel"
	"memreliability/internal/prog"
	"memreliability/internal/rng"
)

func mustProgram(t *testing.T, prefix []memmodel.OpType) *prog.Program {
	t.Helper()
	p, err := prog.FromTypes(prefix)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSettleSCIsIdentity(t *testing.T) {
	src := rng.New(1)
	p, err := prog.Generate(prog.DefaultParams(20), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Settle(p, memmodel.SC(), DefaultOptions(), src)
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range res.Perm() {
		if pos != i {
			t.Fatalf("SC moved instruction %d to %d", i, pos)
		}
	}
	if res.WindowGamma() != 0 {
		t.Errorf("SC window γ = %d", res.WindowGamma())
	}
	if res.SegmentLength() != 2 {
		t.Errorf("SC segment length = %d, want 2", res.SegmentLength())
	}
}

func TestSettleOutputIsPermutation(t *testing.T) {
	src := rng.New(2)
	models := memmodel.All()
	check := func(seed uint32, prefixLen uint8, modelIdx uint8) bool {
		model := models[int(modelIdx)%len(models)]
		p, err := prog.Generate(prog.DefaultParams(int(prefixLen%24)), rng.New(uint64(seed)))
		if err != nil {
			return false
		}
		res, err := Settle(p, model, DefaultOptions(), src)
		if err != nil {
			return false
		}
		perm := res.Perm()
		seen := make([]bool, len(perm))
		for _, pos := range perm {
			if pos < 0 || pos >= len(perm) || seen[pos] {
				return false
			}
			seen[pos] = true
		}
		// Order and Perm must be inverse.
		order := res.Order()
		for pos, idx := range order {
			if perm[idx] != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSettleRespectsModelConstraints(t *testing.T) {
	// Under TSO, the relative order of STs must be preserved, the relative
	// order of LDs must be preserved, and no ST may move before a LD that
	// preceded it in program order.
	src := rng.New(3)
	for trial := 0; trial < 500; trial++ {
		p, err := prog.Generate(prog.DefaultParams(16), src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Settle(p, memmodel.TSO(), DefaultOptions(), src)
		if err != nil {
			t.Fatal(err)
		}
		perm := res.Perm()
		for i := 0; i < p.Len(); i++ {
			for j := i + 1; j < p.Len(); j++ {
				ti, tj := p.At(i).Type, p.At(j).Type
				inverted := perm[j] < perm[i]
				if inverted && !(ti == memmodel.Store && tj == memmodel.Load) {
					t.Fatalf("TSO inverted %v(at %d) and %v(at %d)", ti, i, tj, j)
				}
			}
		}
	}
}

func TestSettleCriticalPairNeverInverts(t *testing.T) {
	src := rng.New(4)
	for _, model := range memmodel.All() {
		for trial := 0; trial < 300; trial++ {
			p, err := prog.Generate(prog.DefaultParams(10), src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Settle(p, model, DefaultOptions(), src)
			if err != nil {
				t.Fatal(err)
			}
			lp, sp := res.WindowBounds()
			if lp >= sp {
				t.Fatalf("%s: critical store (pos %d) not after critical load (pos %d)",
					model.Name(), sp, lp)
			}
		}
	}
}

func TestSettleValidation(t *testing.T) {
	src := rng.New(5)
	p := mustProgram(t, nil)
	if _, err := Settle(nil, memmodel.SC(), DefaultOptions(), src); !errors.Is(err, ErrBadInput) {
		t.Error("nil program accepted")
	}
	if _, err := Settle(p, memmodel.SC(), DefaultOptions(), nil); !errors.Is(err, ErrBadInput) {
		t.Error("nil source accepted")
	}
	if _, err := Settle(p, memmodel.Model{}, DefaultOptions(), src); !errors.Is(err, ErrBadInput) {
		t.Error("zero model accepted")
	}
}

func TestSettleTracedSnapshots(t *testing.T) {
	src := rng.New(6)
	p := mustProgram(t, []memmodel.OpType{memmodel.Store, memmodel.Store, memmodel.Load})
	res, snaps, err := SettleTraced(p, memmodel.WO(), DefaultOptions(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != p.Len() {
		t.Fatalf("got %d snapshots, want %d", len(snaps), p.Len())
	}
	for i, snap := range snaps {
		if snap.Round != i+1 {
			t.Errorf("snapshot %d round = %d", i, snap.Round)
		}
		if snap.EndPos > snap.StartPos {
			t.Errorf("round %d moved down: %d -> %d", snap.Round, snap.StartPos, snap.EndPos)
		}
		if len(snap.Order) != p.Len() {
			t.Errorf("round %d order length %d", snap.Round, len(snap.Order))
		}
	}
	// Final snapshot must agree with the result.
	last := snaps[len(snaps)-1]
	for pos, idx := range res.Order() {
		if last.Order[pos] != idx {
			t.Fatalf("final snapshot disagrees with result at position %d", pos)
		}
	}
}

func TestWindowGammaDefinition(t *testing.T) {
	// Deterministic WO program where swaps always succeed (s=1): with a
	// one-LD prefix, every instruction settles to the top in turn.
	sp, err := memmodel.NewSwapProbabilities(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProgram(t, []memmodel.OpType{memmodel.Load})
	src := rng.New(7)
	res, err := Settle(p, memmodel.WO(), Options{SwapProbs: sp}, src)
	if err != nil {
		t.Fatal(err)
	}
	// Round 2: critical LD swaps past the prefix LD to position 0.
	// Round 3: critical ST swaps past the prefix LD, then blocks at the
	// critical LD: final order = [critLD, critST, LD]. γ = 0.
	if got := res.WindowGamma(); got != 0 {
		t.Errorf("γ = %d, want 0", got)
	}
	perm := res.Perm()
	if perm[1] != 0 || perm[2] != 1 || perm[0] != 2 {
		t.Errorf("perm = %v", perm)
	}
}

// theorem41WO is the closed form for Weak Ordering: Pr[B_0] = 2/3,
// Pr[B_γ] = 2^-γ/3 for γ > 0.
func theorem41WO(gamma int) float64 {
	if gamma == 0 {
		return 2.0 / 3.0
	}
	return math.Pow(2, -float64(gamma)) / 3
}

func TestExactWindowDistWOMatchesTheorem41(t *testing.T) {
	// Finite-m truncation error is O(2^-m): below rounding at m = 64.
	for _, tc := range []struct {
		m   int
		tol float64
	}{{14, 1e-3}, {64, 1e-15}} {
		pmf, err := ExactWindowDist(memmodel.WO(), tc.m, 0.5, 0.5, 10)
		if err != nil {
			t.Fatal(err)
		}
		for gamma := 0; gamma <= 8; gamma++ {
			want := theorem41WO(gamma)
			if got := pmf.At(gamma); math.Abs(got-want) > tc.tol {
				t.Errorf("m=%d: WO Pr[B_%d] = %v, want %v", tc.m, gamma, got, want)
			}
		}
	}
}

func TestExactWindowDistSC(t *testing.T) {
	pmf, err := ExactWindowDist(memmodel.SC(), 10, 0.5, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := pmf.At(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("SC Pr[B_0] = %v, want 1", got)
	}
	for gamma := 1; gamma <= 5; gamma++ {
		if got := pmf.At(gamma); got != 0 {
			t.Errorf("SC Pr[B_%d] = %v, want 0", gamma, got)
		}
	}
}

func TestExactWindowDistTSOMatchesTheorem41(t *testing.T) {
	// TSO: Pr[B_0] = 2/3; for γ > 0,
	// (6/7)·4^-γ ≤ Pr[B_γ] ≤ (6/7)·4^-γ + (2/21)·2^-γ.
	pmf, err := ExactWindowDist(memmodel.TSO(), 16, 0.5, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := pmf.At(0); math.Abs(got-2.0/3.0) > 1e-3 {
		t.Errorf("TSO Pr[B_0] = %v, want 2/3", got)
	}
	for gamma := 1; gamma <= 8; gamma++ {
		got := pmf.At(gamma)
		lower := (6.0 / 7.0) * math.Pow(4, -float64(gamma))
		upper := lower + (2.0/21.0)*math.Pow(2, -float64(gamma))
		if got < lower-1e-4 || got > upper+1e-4 {
			t.Errorf("TSO Pr[B_%d] = %v outside [%v, %v]", gamma, got, lower, upper)
		}
	}
}

func TestExactWindowDistPSOStoreChasesLoad(t *testing.T) {
	// In the settling model, the instructions the critical LD passes under
	// TSO/PSO are all STs, and PSO's ST→ST relaxation lets the critical ST
	// chase the critical LD upward through them. PSO windows are therefore
	// *smaller* than TSO's: Pr[B_0] is larger and every positive-γ mass is
	// no larger. (The paper's footnote 4 reports no PSO numbers; this is a
	// derived property of the model, recorded in EXPERIMENTS.md.)
	tso, err := ExactWindowDist(memmodel.TSO(), 14, 0.5, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	pso, err := ExactWindowDist(memmodel.PSO(), 14, 0.5, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pso.At(0) <= tso.At(0) {
		t.Errorf("Pr[B_0]: PSO %v should exceed TSO %v", pso.At(0), tso.At(0))
	}
	for gamma := 1; gamma <= 6; gamma++ {
		if pso.At(gamma) > tso.At(gamma)+1e-9 {
			t.Errorf("γ=%d: PSO %v > TSO %v", gamma, pso.At(gamma), tso.At(gamma))
		}
	}
	// WO's 2^-γ tail must overtake TSO's 4^-γ tail for moderate γ.
	wo, err := ExactWindowDist(memmodel.WO(), 14, 0.5, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for gamma := 3; gamma <= 6; gamma++ {
		if wo.At(gamma) <= tso.At(gamma) {
			t.Errorf("γ=%d: WO tail %v should exceed TSO tail %v", gamma, wo.At(gamma), tso.At(gamma))
		}
	}
}

func TestExactWindowDistMass(t *testing.T) {
	for _, model := range memmodel.All() {
		pmf, err := ExactWindowDist(model, 12, 0.5, 0.5, 12)
		if err != nil {
			t.Fatal(err)
		}
		if total := pmf.Total(); math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: tabulated mass %v, want ~1 (maxGamma=m)", model.Name(), total)
		}
	}
}

func TestExactWindowDistValidation(t *testing.T) {
	if _, err := ExactWindowDist(memmodel.Model{}, 5, 0.5, 0.5, 5); !errors.Is(err, ErrBadInput) {
		t.Error("zero model accepted")
	}
	pmf, err := ExactWindowDist(memmodel.SC(), 50, 0.5, 0.5, 50)
	if err != nil {
		t.Fatalf("m = 50: %v", err)
	}
	if math.Abs(pmf.Total()-1) > 1e-12 {
		t.Errorf("m = 50: mass %v, want 1", pmf.Total())
	}
	if _, err := ExactWindowDist(memmodel.SC(), 5, 1.5, 0.5, 5); !errors.Is(err, ErrBadInput) {
		t.Error("bad pStore accepted")
	}
	if _, err := ExactWindowDist(memmodel.SC(), 5, 0.5, -1, 5); !errors.Is(err, ErrBadInput) {
		t.Error("bad s accepted")
	}
	if _, err := ExactWindowDist(memmodel.TSO(), 4, math.NaN(), 0.5, 4); !errors.Is(err, ErrBadInput) {
		t.Error("NaN pStore accepted")
	}
	if _, err := ExactWindowDist(memmodel.TSO(), 4, 0.5, math.NaN(), 4); !errors.Is(err, ErrBadInput) {
		t.Error("NaN s accepted")
	}
	if _, err := ExactWindowDist(memmodel.SC(), 5, 0.5, 0.5, -1); !errors.Is(err, ErrBadInput) {
		t.Error("negative maxGamma accepted")
	}
}

func TestSamplerMatchesExactDP(t *testing.T) {
	// Distributional cross-check: empirical window frequencies from the
	// sampler vs the exact DP, for every model, m=10.
	const m, trials = 10, 120000
	src := rng.New(8)
	for _, model := range memmodel.All() {
		pmf, err := ExactWindowDist(model, m, 0.5, 0.5, m)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, m+1)
		for trial := 0; trial < trials; trial++ {
			p, err := prog.Generate(prog.DefaultParams(m), src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Settle(p, model, DefaultOptions(), src)
			if err != nil {
				t.Fatal(err)
			}
			counts[res.WindowGamma()]++
		}
		for gamma := 0; gamma <= 4; gamma++ {
			want := pmf.At(gamma)
			got := float64(counts[gamma]) / trials
			tol := 4*math.Sqrt(want*(1-want)/trials) + 1e-4
			if math.Abs(got-want) > tol {
				t.Errorf("%s: empirical Pr[B_%d] = %v, exact %v (tol %v)",
					model.Name(), gamma, got, want, tol)
			}
		}
	}
}

func TestExactContiguousStoreDistTSO(t *testing.T) {
	// Lemma 4.2: Pr[L_0] = 1/3 exactly, and Pr[L_µ] ≥ (4/7)·2^-µ for µ ≥ 1.
	pmf, err := ExactContiguousStoreDist(memmodel.TSO(), 16, 0.5, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := pmf.At(0); math.Abs(got-1.0/3.0) > 1e-3 {
		t.Errorf("Pr[L_0] = %v, want 1/3", got)
	}
	for mu := 1; mu <= 8; mu++ {
		lower := (4.0 / 7.0) * math.Pow(2, -float64(mu))
		if got := pmf.At(mu); got < lower-1e-4 {
			t.Errorf("Pr[L_%d] = %v below Lemma 4.2 bound %v", mu, got, lower)
		}
	}
}

func TestBottomStoreDensityClaim43(t *testing.T) {
	// Claim 4.3: under TSO with p = s = 1/2 the density converges to 2/3,
	// and the finite-i value is 2/3 + (1/4)^{i-1}·(1/2 − 2/3).
	densities, err := BottomStoreDensity(memmodel.TSO(), 12, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range densities {
		round := i + 1
		want := 2.0/3.0 + math.Pow(0.25, float64(round-1))*(0.5-2.0/3.0)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("round %d: density %v, want %v", round, got, want)
		}
	}
	final := densities[len(densities)-1]
	if math.Abs(final-2.0/3.0) > 1e-6 {
		t.Errorf("limit density %v, want 2/3", final)
	}
}

func TestBottomStoreDensitySC(t *testing.T) {
	// Under SC nothing moves, so the bottom instruction is ST with
	// probability exactly p in every round.
	densities, err := BottomStoreDensity(memmodel.SC(), 8, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range densities {
		if math.Abs(got-0.3) > 1e-12 {
			t.Errorf("round %d: density %v, want 0.3", i+1, got)
		}
	}
}

func TestSettleWithFences(t *testing.T) {
	// A full fence directly above the critical pair prevents any window
	// growth even under WO: the critical LD cannot settle past it.
	src := rng.New(9)
	p, err := prog.FromTypes([]memmodel.OpType{
		memmodel.Store, memmodel.Store, memmodel.FenceFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		res, err := Settle(p, memmodel.WO(), DefaultOptions(), src)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.WindowGamma(); got != 0 {
			t.Fatalf("fenced WO window γ = %d, want 0", got)
		}
	}
}

func TestSettleAcquireBlocksReleaseAllows(t *testing.T) {
	// With s=1 under WO: a release fence lets the critical LD pass, an
	// acquire fence does not.
	sp, err := memmodel.NewSwapProbabilities(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(10)

	rel, err := prog.FromTypes([]memmodel.OpType{memmodel.FenceRelease})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Settle(rel, memmodel.WO(), Options{SwapProbs: sp}, src)
	if err != nil {
		t.Fatal(err)
	}
	if pos := res.Perm()[rel.CriticalLoadIndex()]; pos != 0 {
		t.Errorf("critical LD did not pass release fence: pos %d", pos)
	}

	acq, err := prog.FromTypes([]memmodel.OpType{memmodel.FenceAcquire})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Settle(acq, memmodel.WO(), Options{SwapProbs: sp}, src)
	if err != nil {
		t.Fatal(err)
	}
	if pos := res.Perm()[acq.CriticalLoadIndex()]; pos != 1 {
		t.Errorf("critical LD passed acquire fence: pos %d", pos)
	}
}

func BenchmarkSettleTSO64(b *testing.B) {
	src := rng.New(1)
	p, err := prog.Generate(prog.DefaultParams(64), src)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Settle(p, memmodel.TSO(), opts, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactWindowDist times the window DP for every registered model
// at p = s = 1/2, tabulating the full support: at m = 16, and at m =
// 4,096, estimator.PrefixLimit, the longest prefix an exact or
// windowdist query may ask for.
func BenchmarkExactWindowDist(b *testing.B) {
	for _, m := range []int{16, 4096} {
		for _, model := range memmodel.Registered() {
			b.Run(fmt.Sprintf("m=%d/%s", m, model.Name()), func(b *testing.B) {
				for b.Loop() {
					if _, err := ExactWindowDist(model, m, 0.5, 0.5, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
