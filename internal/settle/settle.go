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
//     the law of the settled prefix's bottom run, used to validate both
//     the sampler and the paper's closed forms (Theorem 4.1, Lemma 4.2,
//     Claim 4.3).
package settle

import (
	"errors"
	"fmt"

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

// ExactWindowDist returns the exact distribution of the critical-window
// growth γ for a random program with prefix length m and store probability
// pStore, settled under the given model with uniform swap probability s.
// The returned PMF tabulates Pr[B_γ] for γ ∈ [0, maxGamma]; any remaining
// probability is tail mass.
//
// This is a finite-m ground truth for Theorem 4.1 (whose closed forms take
// m → ∞); the finite-size discrepancy decays geometrically in m. It takes
// O(m²) time and O(m) memory.
func ExactWindowDist(model memmodel.Model, m int, pStore, s float64, maxGamma int) (*dist.PMF, error) {
	if err := validateWindowArgs(model, m, pStore, s, maxGamma); err != nil {
		return nil, err
	}
	r := newRunLaw(model, m, s)
	for i := 0; i < m; i++ {
		r.round(i, pStore)
	}
	return dist.NewPMF(r.windowMass(maxGamma))
}

// The exact DPs track the law of one pair: the type t of the settled
// prefix's bottom instruction and the length ℓ of its bottom run (the
// instructions of type t below the lowest one of the other type). That
// pair holds everything a walker's reach depends on, whichever of Table
// 1's pairs the model relaxes: a walker stopped by both types passes
// nothing, one stopped by neither passes the whole prefix, and one
// stopped by one type passes the bottom run when the run is of the other
// type and nothing otherwise. So 2m states stand in for the 2^m type
// strings of the prefix.

// The two plain types, as indices of a walker's row and of the run law.
const (
	ld = 0
	st = 1
)

// walker is one moving type's row of a model's permission matrix:
// stops[x] reports whether a preceding instruction of type x stops it.
type walker struct{ stops [2]bool }

func walkerOf(model memmodel.Model, moving memmodel.OpType) walker {
	return walker{stops: [2]bool{
		ld: !model.Relaxed(memmodel.Load, moving),
		st: !model.Relaxed(memmodel.Store, moving),
	}}
}

// reach returns how many instructions of a length-n prefix whose bottom
// run is l instructions of type t the walker, entering directly below
// the prefix, can settle past before one stops it.
func (w walker) reach(t, l, n int) int {
	switch {
	case w.stops[t]:
		return 0
	case w.stops[1-t]:
		return l
	default:
		return n
	}
}

// runLaw is one evaluation of the exact DP: the law of the settled
// prefix's bottom run, advanced one settling round at a time.
//
// Every walk is a truncated geometric: a walker of reach R passes a < R
// instructions with probability s^a·(1−s) and all R with probability
// s^R. The floating-point operations and their order are part of every
// result: testdata/exact_dp_golden.txt pins them bit for bit.
type runLaw struct {
	walkers [2]walker // a moving LD's row and a moving ST's
	stay    float64   // 1 − s, the chance a permitted swap fails
	pow     []float64 // pow[k] = s^k for k ∈ [0, 2m]
	gsum    []float64 // gsum[k] = G(k) = Σ_{j<k} s^{2j} for k ∈ [0, m]
	m       int
	// cur[t][l] is the probability that the prefix's bottom run is l
	// instructions of type t; the empty prefix is cur[ld][0]. next is
	// the round's output, swapped with cur after the round.
	cur, next [2][]float64
}

func newRunLaw(model memmodel.Model, m int, s float64) *runLaw {
	r := &runLaw{
		walkers: [2]walker{ld: walkerOf(model, memmodel.Load), st: walkerOf(model, memmodel.Store)},
		stay:    1 - s,
		pow:     make([]float64, 2*m+1),
		gsum:    make([]float64, m+1),
		m:       m,
	}
	for t := range 2 {
		r.cur[t], r.next[t] = make([]float64, m+1), make([]float64, m+1)
	}
	r.pow[0] = 1
	for k := 1; k < len(r.pow); k++ {
		r.pow[k] = r.pow[k-1] * s
	}
	for k := 1; k < len(r.gsum); k++ {
		r.gsum[k] = r.gsum[k-1] + r.pow[2*(k-1)]
	}
	r.cur[ld][0] = 1
	return r
}

// round performs settling round i+1 on a prefix of i instructions: the
// new instruction, a ST with probability pStore, enters below the prefix
// and settles upward. A walker of type u below a run of l of type t:
//
//   - u = t joins the run, unless it passes the whole run and the
//     instruction above it, which only a walker stopped by neither type
//     can (probability s^{l+1});
//   - u ≠ t stopped by t starts a run of its own;
//   - u ≠ t not stopped by t reaches at least the top of the run. It
//     stays below it with probability 1−s, starting a run of its own,
//     passes it whole with probability s^l, leaving it as it was, or
//     stops inside it after a ∈ [1, l) passes with probability
//     s^a·(1−s), cutting it to a. One suffix sum over l collects the
//     cuts.
func (r *runLaw) round(i int, pStore float64) {
	clear(r.next[ld])
	clear(r.next[st])
	for u, pu := range [2]float64{ld: 1 - pStore, st: pStore} {
		if pu == 0 {
			continue
		}
		w := r.walkers[u]
		own := r.next[u]
		if i == 0 {
			own[1] += pu * r.cur[ld][0]
			continue
		}
		for t := range 2 {
			from, out := r.cur[t][:i+1], r.next[t]
			switch {
			case t == u:
				passes := !w.stops[ld] && !w.stops[st]
				for l := 1; l <= i; l++ {
					p, past := pu*from[l], 0.0
					if passes && l < i {
						past = p * r.pow[l+1]
					}
					out[l] += past
					out[l+1] += p - past
				}
			case w.stops[t]:
				total := 0.0
				for _, p := range from[1:] {
					total += p
				}
				own[1] += pu * total
			default:
				tail := 0.0 // the weight of the runs longer than l
				for l := i; l >= 1; l-- {
					out[l] += pu * r.pow[l] * (from[l] + r.stay*tail)
					tail += from[l]
				}
				own[1] += pu * r.stay * tail
			}
		}
	}
	r.cur, r.next = r.next, r.cur
}

// windowMass tabulates Pr[B_γ] for γ ∈ [0, maxGamma] after the prefix's
// m rounds, when the critical LD and then the critical ST settle. Each
// mass[γ] receives the same additions in the same order whatever
// maxGamma is, so a shorter table is a bit-identical prefix of a longer
// one.
func (r *runLaw) windowMass(maxGamma int) []float64 {
	mass := make([]float64, maxGamma+1)
	for t := range 2 {
		for l, w := range r.cur[t] {
			if w != 0 {
				r.addWindow(mass, w, r.walkers[ld].reach(t, l, r.m), r.walkers[st].reach(t, l, r.m))
			}
		}
	}
	return mass
}

// addWindow adds weight w of the window law for a critical LD of reach a
// and a critical ST of reach c over the prefix. The critical LD passes
// x ≤ a instructions; the ones it passed keep their order below it, so
// the critical ST then passes y ≤ min(x, c) of them from the bottom, the
// critical LD itself (same address) stopping it at y = x; γ = x − y.
// Summing the two truncated geometrics over x gives, with G as in
// runLaw.gsum,
//
//	Pr[γ = 0] = (1−s)·G(a) + s^{2a}                     if c ≥ a,
//	            (1−s)·G(c+1)                            if c < a;
//	Pr[γ = g] = (1−s)²·s^g·G(c) + (1−s)·s^{g+2c}        if g + c < a,
//	            (1−s)²·s^g·G(c) + s^{g+2c}              if g + c = a,
//	            (1−s)²·s^g·G(a−g) + (1−s)·s^{2a−g}      if g ≤ a < g + c,
//
// and Pr[γ = g] = 0 for g > a.
func (r *runLaw) addWindow(mass []float64, w float64, a, c int) {
	pow, gsum, stay := r.pow, r.gsum, r.stay
	if c >= a {
		mass[0] += w * (stay*gsum[a] + pow[2*a])
	} else {
		mass[0] += w * stay * gsum[c+1]
	}
	for g := 1; g <= min(a, len(mass)-1); g++ {
		var p float64
		switch {
		case g+c < a:
			p = stay*stay*pow[g]*gsum[c] + stay*pow[g+2*c]
		case g+c == a:
			p = stay*stay*pow[g]*gsum[c] + pow[g+2*c]
		default:
			p = stay*stay*pow[g]*gsum[a-g] + stay*pow[2*a-g]
		}
		mass[g] += w * p
	}
}

// ExactContiguousStoreDist returns the exact distribution of L_µ — the
// number of contiguous STs immediately above the critical LD in S_m (the
// order just before the critical load settles), which is the bottom run
// when it is of STs and 0 otherwise — tabulated for µ ∈ [0, maxMu]. This
// is the quantity Lemma 4.2 bounds: Pr[L_0] = 1/3 and Pr[L_µ] ≥
// (4/7)·2^-µ under TSO.
func ExactContiguousStoreDist(model memmodel.Model, m int, pStore, s float64, maxMu int) (*dist.PMF, error) {
	if err := validateExactArgs(model, m, pStore, s); err != nil {
		return nil, err
	}
	if maxMu < 0 {
		return nil, fmt.Errorf("%w: maxMu=%d", ErrBadInput, maxMu)
	}
	r := newRunLaw(model, m, s)
	for i := 0; i < m; i++ {
		r.round(i, pStore)
	}
	mass := make([]float64, maxMu+1)
	for _, w := range r.cur[ld] {
		mass[0] += w
	}
	for mu, w := range r.cur[st][:min(m, maxMu)+1] {
		mass[mu] += w
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
	r := newRunLaw(model, m, s)
	out := make([]float64, 0, m)
	for i := 0; i < m; i++ {
		r.round(i, pStore)
		density := 0.0
		for _, w := range r.cur[st] {
			density += w
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
	if m < 0 {
		return fmt.Errorf("%w: prefix length %d", ErrBadInput, m)
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
