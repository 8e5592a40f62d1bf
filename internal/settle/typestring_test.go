package settle

// The type-string DP: an exact settling DP that carries the law of the
// whole settled prefix, all 2^m of its LD/ST strings. It is the
// independent oracle the run law in settle.go is held to, and it runs
// only at small m.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"memreliability/internal/memmodel"
)

// windowMass runs the window DP and tabulates Pr[B_γ] for γ ∈ [0,
// maxGamma]. Each mass[γ] receives the same additions in the same order
// whatever maxGamma is, so a shorter table is a bit-identical prefix of
// a longer one.
func (d dp) windowMass(m int, pStore float64, maxGamma int) []float64 {
	strings := d.prefixStringDist(m, pStore)
	mass := make([]float64, maxGamma+1)
	for mask, w := range strings {
		if w == 0 {
			continue
		}
		d.accumWindow(uint64(mask), m, w, mass)
	}
	return mass
}

// The exact DP works on type strings encoded as masks: bit j is the type
// at position j (set = ST, clear = LD), position 0 is the top, and a
// length-n string is a mask below 2^n.

// blockers is one moving type's row of a model's permission matrix in the
// mask encoding: st is all ones when a preceding ST stops the moving
// instruction and zero when it may settle past one, and ld likewise for
// a preceding LD, so mask&st | ^mask&ld marks every position that stops
// it.
type blockers struct{ st, ld uint64 }

func blockersOf(model memmodel.Model, moving memmodel.OpType) blockers {
	var b blockers
	if !model.Relaxed(memmodel.Store, moving) {
		b.st = ^uint64(0)
	}
	if !model.Relaxed(memmodel.Load, moving) {
		b.ld = ^uint64(0)
	}
	return b
}

// reach returns how many instructions of the length-n string mask an
// instruction entering directly below it can settle past before the
// first one that stops it (n when none does): n minus the bit length of
// the blocked positions, since it passes positions n-1, n-2, ... in turn.
func (b blockers) reach(mask uint64, n int) int {
	return n - bits.Len64((mask&b.st|^mask&b.ld)&(1<<uint(n)-1))
}

// dp is one exact-DP evaluation: the model's four plain-pair permissions
// and the swap probability, read once per call, so that the inner loops
// compare integers and multiply by stay, with no permission lookup.
//
// Every loop walks an instruction upward as the settling process does:
// each step short of its reach is a swap attempt that fails with
// probability stay = 1 − s, and the step at its reach stops it with
// certainty. The floating-point operations and their order are part of
// every result: testdata/exact_dp_golden.txt pins them bit for bit.
type dp struct {
	ld, st blockers // the rows of a moving LD and a moving ST
	stay   float64
}

func newDP(model memmodel.Model, s float64) dp {
	return dp{
		ld:   blockersOf(model, memmodel.Load),
		st:   blockersOf(model, memmodel.Store),
		stay: 1 - s,
	}
}

// prefixStringDist computes the exact distribution over type strings of the
// settled prefix after rounds 1..m (the order S_m restricted to the prefix,
// which rounds m+1 and m+2 take as input). The distribution is dense:
// entry mask holds the weight of the length-m type string mask. A dense
// slice (rather than a map) keeps the floating-point accumulation order
// deterministic, so exact-DP results are bit-identical across runs.
func (d dp) prefixStringDist(m int, pStore float64) []float64 {
	cur := []float64{1} // the single empty string
	for i := 0; i < m; i++ {
		cur = d.stepStringDist(cur, i, pStore)
	}
	return cur
}

// stepStringDist performs settling round i+1 on a distribution over
// length-i type strings: the new instruction (ST with probability pStore)
// enters at position i (the bottom of the current string) and settles
// upward; stopping after passing a instructions leaves it at position i-a.
func (d dp) stepStringDist(cur []float64, i int, pStore float64) []float64 {
	next := make([]float64, 2*len(cur))
	pLoad := 1 - pStore
	for maskInt, w := range cur {
		if w == 0 {
			continue
		}
		mask := uint64(maskInt)
		if pStore != 0 {
			d.insert(next, mask, i, 1, d.st.reach(mask, i), w*pStore)
		}
		if pLoad != 0 {
			d.insert(next, mask, i, 0, d.ld.reach(mask, i), w*pLoad)
		}
	}
	return next
}

// insert spreads weight w of an instruction of type bit typ (1 = ST) that
// enters below the length-i string mask and can pass at most reach of its
// instructions over the length-(i+1) strings next: stopping after a
// passes puts typ at position i-a, shifting the positions below it down.
func (d dp) insert(next []float64, mask uint64, i int, typ uint64, reach int, w float64) {
	remaining := w
	for a := 0; a <= reach; a++ {
		stop := remaining
		if a < reach {
			stop = remaining * d.stay
		}
		if stop > 0 {
			k := uint(i - a)
			next[mask&(1<<k-1)|mask>>k<<(k+1)|typ<<k] += stop
		}
		remaining -= stop
		if remaining <= 0 {
			break
		}
	}
}

// accumWindow adds, for the settled prefix string mask (length m, weight
// w), the joint outcome of rounds m+1 (critical LD) and m+2 (critical ST)
// to the window-size mass table.
//
// The critical LD starts directly below the string and passes a
// instructions; the instructions it passed keep their relative order below
// it, so the critical ST then passes b ≤ a of them from the bottom and
// stops automatically when it reaches the critical LD (same address).
// γ = a − b.
func (d dp) accumWindow(mask uint64, m int, w float64, mass []float64) {
	reachLD, reachST := d.ld.reach(mask, m), d.st.reach(mask, m)
	remainingLD := w
	for a := 0; a <= reachLD; a++ {
		stopLD := remainingLD
		if a < reachLD {
			stopLD = remainingLD * d.stay
		}
		if stopLD > 0 {
			// Critical ST passes b of the a instructions below the LD;
			// from the bottom those are t[m-1], t[m-2], ..., t[m-a], and
			// the critical LD itself stops it at b = a (same address).
			limit := min(a, reachST)
			remainingST := stopLD
			for b := 0; b <= limit; b++ {
				stopST := remainingST
				if b < limit {
					stopST = remainingST * d.stay
				}
				if stopST > 0 {
					gamma := a - b
					if gamma < len(mass) {
						mass[gamma] += stopST
					}
				}
				remainingST -= stopST
				if remainingST <= 0 {
					break
				}
			}
		}
		remainingLD -= stopLD
		if remainingLD <= 0 {
			break
		}
	}
}

// The oracle's entry points: the exported exact DPs' bodies over type
// strings, without their validation.

func oracleWindowDist(model memmodel.Model, m int, pStore, s float64, maxGamma int) []float64 {
	return newDP(model, s).windowMass(m, pStore, maxGamma)
}

func oracleContiguousStoreDist(model memmodel.Model, m int, pStore, s float64, maxMu int) []float64 {
	strings := newDP(model, s).prefixStringDist(m, pStore)
	mass := make([]float64, maxMu+1)
	for mask, w := range strings {
		if w == 0 {
			continue
		}
		mu := 0
		for j := m - 1; j >= 0 && mask>>uint(j)&1 != 0; j-- {
			mu++
		}
		if mu < len(mass) {
			mass[mu] += w
		}
	}
	return mass
}

func oracleBottomStoreDensity(model memmodel.Model, m int, pStore, s float64) []float64 {
	d := newDP(model, s)
	out := make([]float64, 0, m)
	cur := []float64{1}
	for i := 0; i < m; i++ {
		cur = d.stepStringDist(cur, i, pStore)
		density := 0.0
		for mask, w := range cur {
			if mask>>uint(i)&1 != 0 {
				density += w
			}
		}
		out = append(out, density)
	}
	return out
}

func oracleConditionalWindowDist(model memmodel.Model, prefix []memmodel.OpType, s float64) []float64 {
	d := newDP(model, s)
	cur := []float64{1}
	for i, t := range prefix {
		pStore := 0.0
		if t == memmodel.Store {
			pStore = 1.0
		}
		cur = d.stepStringDist(cur, i, pStore)
	}
	m := len(prefix)
	mass := make([]float64, m+1)
	for mask, w := range cur {
		if w == 0 {
			continue
		}
		d.accumWindow(uint64(mask), m, w, mass)
	}
	return mass
}

// relaxationLattice returns one model per subset of Table 1's four
// reordering pairs, registered or not: every permission matrix a walker
// can meet.
func relaxationLattice(t *testing.T) []memmodel.Model {
	t.Helper()
	types := []memmodel.OpType{memmodel.Store, memmodel.Load}
	var models []memmodel.Model
	for mask := 0; mask < 16; mask++ {
		var relaxed []memmodel.Pair
		bit := 1
		for _, prev := range types {
			for _, moving := range types {
				if mask&bit != 0 {
					relaxed = append(relaxed, memmodel.Pair{Prev: prev, Moving: moving})
				}
				bit <<= 1
			}
		}
		model, err := memmodel.New(fmt.Sprintf("lattice-%04b", mask), relaxed)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model)
	}
	return models
}

// oracleTolerance is the largest absolute difference allowed between a
// run-law value and the type-string oracle's: the two sum the same
// probabilities in different orders and groupings.
const oracleTolerance = 1e-12

// closeTo reports the first entry where got and want differ by more
// than oracleTolerance, or a length mismatch.
func closeTo(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, oracle %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= oracleTolerance) {
			return fmt.Errorf("entry %d = %v, oracle %v (|Δ| = %.3g)", i, got[i], want[i], d)
		}
	}
	return nil
}

// TestRunLawMatchesTypeStringOracle holds the four exported exact DPs to
// the type-string oracle on every relaxation subset, at every m ∈ [0,
// 13] and at (p, s) points that include both edges of each, tabulating
// past the support so the tails are checked as zeros; and holds
// ConditionalWindowDist to it over all 1,024 programs of length 10.
func TestRunLawMatchesTypeStringOracle(t *testing.T) {
	points := [][2]float64{{0.5, 0.5}, {0.3, 0.7}, {0.8, 0.9}, {0.1, 0.25}, {0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {0, 1}, {1, 0}}
	models := relaxationLattice(t)
	for _, model := range models {
		for m := 0; m <= 13; m++ {
			for _, ps := range points {
				p, s := ps[0], ps[1]
				at := fmt.Sprintf("%s m=%d p=%v s=%v", model.Name(), m, p, s)
				window, err := ExactWindowDist(model, m, p, s, m+2)
				if err != nil {
					t.Fatal(err)
				}
				if err := closeTo(pmfValues(window), oracleWindowDist(model, m, p, s, m+2)); err != nil {
					t.Fatalf("window %s: %v", at, err)
				}
				contiguous, err := ExactContiguousStoreDist(model, m, p, s, m+2)
				if err != nil {
					t.Fatal(err)
				}
				if err := closeTo(pmfValues(contiguous), oracleContiguousStoreDist(model, m, p, s, m+2)); err != nil {
					t.Fatalf("contiguous %s: %v", at, err)
				}
				density, err := BottomStoreDensity(model, m, p, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := closeTo(density, oracleBottomStoreDensity(model, m, p, s)); err != nil {
					t.Fatalf("density %s: %v", at, err)
				}
			}
		}
	}
	const m = 10
	prefix := make([]memmodel.OpType, m)
	for _, model := range models {
		for _, s := range []float64{0.5, 0.7, 0, 1} {
			for mask := 0; mask < 1<<m; mask++ {
				for i := range prefix {
					prefix[i] = memmodel.Load
					if mask>>i&1 != 0 {
						prefix[i] = memmodel.Store
					}
				}
				got, err := ConditionalWindowDist(model, prefix, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := closeTo(pmfValues(got), oracleConditionalWindowDist(model, prefix, s)); err != nil {
					t.Fatalf("conditional %s program %0*b s=%v: %v", model.Name(), m, mask, s, err)
				}
			}
		}
	}
}
