// conditional.go computes settling distributions conditioned on a fixed
// program, rather than averaged over random programs. The exact
// small-instance enumeration of the joined model (core.ExactSmallPrA)
// needs this: with n threads reordering the *same* program independently,
// the per-thread windows are conditionally independent given the program
// but dependent unconditionally.
package settle

import (
	"fmt"

	"memreliability/internal/dist"
	"memreliability/internal/memmodel"
)

// ConditionalWindowDist returns the exact critical-window distribution
// Pr[B_γ | program] for the fixed prefix type sequence, settled under the
// model with uniform swap probability s. The PMF tabulates γ ∈ [0, len
// (prefix)], covering the full support, so its mass is exactly 1.
//
// Fences in the prefix are not supported by the exact recursion (the DP
// state tracks only runs of LDs and STs); use the sampler for fenced
// programs.
func ConditionalWindowDist(model memmodel.Model, prefix []memmodel.OpType, s float64) (*dist.PMF, error) {
	if model.Name() == "" {
		return nil, fmt.Errorf("%w: zero-value model", ErrBadInput)
	}
	if !(0 <= s && s <= 1) { // NaN fails too
		return nil, fmt.Errorf("%w: swap probability %v", ErrBadInput, s)
	}
	for i, t := range prefix {
		if !t.IsMemOp() {
			return nil, fmt.Errorf("%w: prefix[%d] type %v (conditional DP supports LD/ST only)",
				ErrBadInput, i, t)
		}
	}
	r := newRunLaw(model, len(prefix), s)
	for i, t := range prefix {
		// round draws the round's type Bernoulli(pStore); pinning pStore
		// to 0 or 1 conditions on the fixed type.
		pStore := 0.0
		if t == memmodel.Store {
			pStore = 1.0
		}
		r.round(i, pStore)
	}
	return dist.NewPMF(r.windowMass(len(prefix)))
}
