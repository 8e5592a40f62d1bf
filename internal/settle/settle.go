// Package settle implements the paper's settling process (§3.1.2, Appendix
// A.2): the probabilistic instruction-reordering model that distinguishes
// the memory consistency models.
//
// Given an initial program order S0 of m+2 instructions, the process runs
// m+2 rounds. In round r, instruction x_r repeatedly swaps with the
// instruction directly before it: the swap automatically fails if the two
// instructions access the same location (footnote 2 — in particular the
// critical store never passes the critical load) or if the memory model
// forbids reordering that ordered pair of types; otherwise it succeeds with
// probability ρ(τ_prev, τ_moving) (the paper's s, by default 1/2 for every
// permitted pair). When a swap fails the round ends.
//
// The package provides two independent realizations of the process:
//
//   - Settle: a sampler producing one random final permutation, and
//   - ExactWindowDist / ExactContiguousStoreDist / BottomStoreDensity:
//     exact finite-m distributions computed by dynamic programming over
//     type strings, used to validate both the sampler and the paper's
//     closed forms (Theorem 4.1, Lemma 4.2, Claim 4.3).
package settle

import (
	"errors"
	"fmt"
	"math/bits"

	"memreliability/internal/dist"
	"memreliability/internal/memmodel"
	"memreliability/internal/prog"
	"memreliability/internal/rng"
)

// ErrBadInput reports invalid settling inputs.
var ErrBadInput = errors.New("settle: bad input")

// Options configures the settling sampler.
type Options struct {
	// SwapProbs gives ρ(τ_prev, τ_moving) for permitted pairs. The zero
	// value is invalid; use memmodel.Uniform(0.5) for the paper's normal
	// form.
	SwapProbs memmodel.SwapProbabilities
}

// DefaultOptions returns the paper's normal form: every permitted swap
// succeeds with probability 1/2.
func DefaultOptions() Options {
	sp, err := memmodel.Uniform(0.5)
	if err != nil {
		panic(err) // unreachable: 0.5 is always valid
	}
	return Options{SwapProbs: sp}
}

// Result is the outcome of settling one program.
type Result struct {
	program *prog.Program
	// order[pos] = original index of the instruction at final position pos.
	order []int
	// perm[origIndex] = final position (the paper's π).
	perm []int
}

// Program returns the settled program.
func (r *Result) Program() *prog.Program { return r.program }

// Perm returns the permutation π mapping original (0-based) positions to
// final positions. The returned slice is a copy.
func (r *Result) Perm() []int {
	out := make([]int, len(r.perm))
	copy(out, r.perm)
	return out
}

// Order returns, for each final position, the original index of the
// instruction there. The returned slice is a copy.
func (r *Result) Order() []int {
	out := make([]int, len(r.order))
	copy(out, r.order)
	return out
}

// WindowGamma returns γ: the number of instructions strictly between the
// critical load and critical store in the final order (the event B_γ).
func (r *Result) WindowGamma() int {
	cl := r.perm[r.program.CriticalLoadIndex()]
	cs := r.perm[r.program.CriticalStoreIndex()]
	return cs - cl - 1
}

// SegmentLength returns Γ = γ+2, the critical-window segment length fed to
// the shift process (§6: E[2^-Γ] = Σ_k≥2 2^-k · Pr[B_{k-2}]).
func (r *Result) SegmentLength() int { return r.WindowGamma() + 2 }

// WindowBounds returns the final positions of the critical load and store.
func (r *Result) WindowBounds() (loadPos, storePos int) {
	return r.perm[r.program.CriticalLoadIndex()], r.perm[r.program.CriticalStoreIndex()]
}

// Snapshot records the state after one settling round, for visualization
// (Figure 1) and debugging.
type Snapshot struct {
	// Round is the 1-based round number (the instruction settled).
	Round int
	// StartPos and EndPos are the 0-based positions the round's
	// instruction occupied before and after settling.
	StartPos, EndPos int
	// Order is the full order after the round: Order[pos] = original index.
	Order []int
}

// Settle runs the settling process on the program and returns the final
// permutation.
func Settle(p *prog.Program, model memmodel.Model, opts Options, src *rng.Source) (*Result, error) {
	return settle(p, model, opts, src, nil)
}

// SettleTraced is Settle plus a per-round trace of the evolving order.
func SettleTraced(p *prog.Program, model memmodel.Model, opts Options, src *rng.Source) (*Result, []Snapshot, error) {
	snaps := make([]Snapshot, 0, p.Len())
	res, err := settle(p, model, opts, src, &snaps)
	if err != nil {
		return nil, nil, err
	}
	return res, snaps, nil
}

func settle(p *prog.Program, model memmodel.Model, opts Options, src *rng.Source, snaps *[]Snapshot) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil program", ErrBadInput)
	}
	if src == nil {
		return nil, fmt.Errorf("%w: nil rng source", ErrBadInput)
	}
	if model.Name() == "" {
		return nil, fmt.Errorf("%w: zero-value model", ErrBadInput)
	}
	n := p.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Round r settles instruction x_r (original index r-1). Earlier rounds
	// permute only x_1..x_{r-1}, so x_r still sits at position r-1.
	for r := 1; r <= n; r++ {
		pos := r - 1
		moving := p.At(order[pos])
		for pos > 0 {
			prev := p.At(order[pos-1])
			if !swapAllowed(prev, moving, model) {
				break
			}
			if !src.Bool(opts.SwapProbs.For(prev.Type, moving.Type)) {
				break
			}
			order[pos], order[pos-1] = order[pos-1], order[pos]
			pos--
		}
		if snaps != nil {
			snapOrder := make([]int, n)
			copy(snapOrder, order)
			*snaps = append(*snaps, Snapshot{
				Round:    r,
				StartPos: r - 1,
				EndPos:   pos,
				Order:    snapOrder,
			})
		}
	}
	perm := make([]int, n)
	for pos, idx := range order {
		perm[idx] = pos
	}
	return &Result{program: p, order: order, perm: perm}, nil
}

// swapAllowed reports whether the moving instruction may attempt to swap
// past prev: same-location memory operations never reorder (footnote 2),
// and otherwise the memory model's matrix (with fence semantics) decides.
func swapAllowed(prev, moving prog.Instruction, model memmodel.Model) bool {
	if prev.Type.IsMemOp() && moving.Type.IsMemOp() && prev.Loc == moving.Loc {
		return false
	}
	return model.Relaxed(prev.Type, moving.Type)
}

// maxExactPrefix bounds the exact-DP prefix length; the state space is
// 2^m type strings.
const maxExactPrefix = 18

// ExactWindowDist returns the exact distribution of the critical-window
// growth γ for a random program with prefix length m and store probability
// pStore, settled under the given model with uniform swap probability s.
// The returned PMF tabulates Pr[B_γ] for γ ∈ [0, maxGamma]; any remaining
// probability is tail mass.
//
// This is a finite-m ground truth for Theorem 4.1 (whose closed forms take
// m → ∞); the finite-size discrepancy decays geometrically in m.
//
// Every call runs the DP; WindowCache.WindowDist returns the same PMF bit
// for bit and runs it once per distinct input.
func ExactWindowDist(model memmodel.Model, m int, pStore, s float64, maxGamma int) (*dist.PMF, error) {
	if err := validateWindowArgs(model, m, pStore, s, maxGamma); err != nil {
		return nil, err
	}
	return dist.NewPMF(newDP(model, s).windowMass(m, pStore, maxGamma))
}

// windowMass runs the window DP and tabulates Pr[B_γ] for γ ∈ [0,
// maxGamma]. Each mass[γ] receives the same additions in the same order
// whatever maxGamma is, so a shorter table is a bit-identical prefix of
// a longer one.
func (d dp) windowMass(m int, pStore float64, maxGamma int) []float64 {
	settleWindowDPEvaluations.Inc()
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

// ExactContiguousStoreDist returns the exact distribution of L_µ — the
// number of contiguous STs immediately above the critical LD in S_m (the
// order just before the critical load settles) — tabulated for
// µ ∈ [0, maxMu]. This is the quantity Lemma 4.2 bounds:
// Pr[L_0] = 1/3 and Pr[L_µ] ≥ (4/7)·2^-µ under TSO.
func ExactContiguousStoreDist(model memmodel.Model, m int, pStore, s float64, maxMu int) (*dist.PMF, error) {
	if err := validateExactArgs(model, m, pStore, s); err != nil {
		return nil, err
	}
	if maxMu < 0 {
		return nil, fmt.Errorf("%w: maxMu=%d", ErrBadInput, maxMu)
	}
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
	return dist.NewPMF(mass)
}

// BottomStoreDensity returns, for each round i ∈ [1, m], the exact
// probability that position i (1-based; the bottom of the settled prefix)
// holds a ST after round i — the quantity of Claim 4.3, which converges to
// 2/3 under TSO with p = s = 1/2.
func BottomStoreDensity(model memmodel.Model, m int, pStore, s float64) ([]float64, error) {
	if err := validateExactArgs(model, m, pStore, s); err != nil {
		return nil, err
	}
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
	return out, nil
}

// validateExactArgs checks the exact DPs' shared inputs. The probability
// checks are written positively so that NaN fails them.
func validateExactArgs(model memmodel.Model, m int, pStore, s float64) error {
	if model.Name() == "" {
		return fmt.Errorf("%w: zero-value model", ErrBadInput)
	}
	if m < 0 || m > maxExactPrefix {
		return fmt.Errorf("%w: prefix length %d (need 0 ≤ m ≤ %d)", ErrBadInput, m, maxExactPrefix)
	}
	if !(0 <= pStore && pStore <= 1) {
		return fmt.Errorf("%w: store probability %v", ErrBadInput, pStore)
	}
	if !(0 <= s && s <= 1) {
		return fmt.Errorf("%w: swap probability %v", ErrBadInput, s)
	}
	return nil
}

// validateWindowArgs checks a window-distribution query.
func validateWindowArgs(model memmodel.Model, m int, pStore, s float64, maxGamma int) error {
	if err := validateExactArgs(model, m, pStore, s); err != nil {
		return err
	}
	if maxGamma < 0 {
		return fmt.Errorf("%w: maxGamma=%d", ErrBadInput, maxGamma)
	}
	return nil
}
