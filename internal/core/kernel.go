package core

import (
	"math"
	"time"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// This file is the table-driven joined-process kernel behind the bitset
// batch constructor NoBugBits (the mc kind's engine). Its loops also back
// the compiled engine (compile.go) on every surface no decision-stream
// form takes: each pooled Program state builds one kernel with
// KernelIR.NewKernel and runs sampleSegments and FillBits on it. The
// reference route —
// prog.Generate → settle.Settle → shift.DisjointTrial, as ManifestTrial
// and ReferenceNoBugBits run it — allocates a program, a settling order, a
// permutation, and a shift placement on every trial and consults the
// model's relaxation map on every swap attempt. The kernel precomputes
// the whole decision surface into two 4×4 tables and replays the exact
// same process on reusable buffers, drawing from the rng.Source through
// the identical Bool calls in the identical order — so its trials are
// bit-identical to the reference route by construction (property-tested
// against it across every canonical model), at a fraction of the cost.
//
// The table encoding exploits the program model's location structure
// (prog package doc): prefix instructions access pairwise-distinct
// locations and only the two critical instructions share one, so
// footnote 2's same-location blocking is a property of the instruction
// *kind* alone. Four kind codes therefore capture everything settling
// ever asks about an instruction.

// Instruction kind codes. Prefix LD/ST carry distinct locations (never
// same-location blocked against anything); the critical pair shares the
// critical location (blocked against each other, never against the
// prefix).
const (
	kindLoad      = 0 // prefix LD
	kindStore     = 1 // prefix ST
	kindCritLoad  = 2 // critical LD (round m+1)
	kindCritStore = 3 // critical ST (round m+2)
)

// kindType maps kind codes to their memory-operation types.
var kindType = [4]memmodel.OpType{memmodel.Load, memmodel.Store, memmodel.Load, memmodel.Store}

// Kernel is a single-goroutine scratch state for running joined-process
// trials without per-trial allocation. One kernel serves one RNG stream
// at a time: the mc harness's per-worker scratch discipline (each batch
// call gets a private kernel) is exactly the required usage. Build one
// with Config.NewKernel.
type Kernel struct {
	threads  int
	storeThr uint64
	shiftThr uint64
	// swapThr[p][m] is the full swap decision surface in threshold form
	// (see drawThreshold): the ρ(τ_p, τ_m) success threshold when kind m
	// may settle past kind p, and neverThr when the pair is forbidden —
	// by the same-location rule or the model's relaxation matrix
	// (settle.swapAllowed, fully tabulated). A forbidden pair and a
	// permitted pair with ρ = 0 both stop the round without drawing,
	// exactly as the reference settling process does, so one table
	// answers both questions.
	swapThr [4][4]uint64
	// typ holds one generated program prefix (kind codes, length m).
	typ []uint8
	// order is the settling scratch: order[pos] = kind at position pos.
	order []uint8
	// segments holds one draw of the n segment lengths Γ_k.
	segments []int
	// shifts holds one draw of the n geometric shifts.
	shifts []int
}

// Draw thresholds: rng.Source.Bool(p) with p ∈ (0,1) succeeds iff
// Float64() < p, i.e. iff float64(Uint64()>>11)·2⁻⁵³ < p. Both sides
// are exact dyadic rationals, so for the integer variate v = Uint64()>>11
// the test is exactly v < ⌈p·2⁵³⌉. The edge probabilities draw nothing:
// p ≤ 0 always fails (neverThr, which no v is below) and p ≥ 1 always
// succeeds (alwaysThr, a sentinel the loops test for before drawing —
// it cannot collide with a real threshold, which is at most 2⁵³). One
// precomputed threshold therefore encodes Bool(p)'s full semantics,
// and the hot loops replay them with a zero-call integer compare.
const (
	neverThr  uint64 = 0
	alwaysThr uint64 = ^uint64(0)
)

// drawThreshold converts a probability to its draw threshold.
func drawThreshold(p float64) uint64 {
	switch {
	case p <= 0:
		return neverThr
	case p >= 1:
		return alwaysThr
	default:
		return uint64(math.Ceil(p * (1 << 53)))
	}
}

// NewKernel validates the configuration and builds a kernel for it,
// lowering the config to the kernel IR (BuildIR) and instantiating the
// table-driven engine over it.
func (c Config) NewKernel() (*Kernel, error) {
	start := time.Now()
	ir, err := c.BuildIR()
	if err != nil {
		return nil, err
	}
	k := ir.NewKernel()
	coreKernelsBuilt.Inc()
	coreKernelBuildSeconds.Observe(time.Since(start).Seconds())
	return k, nil
}

// The kernel's hot loops spell out rng.Source.Bool by hand in threshold
// form (see drawThreshold) — rng.Uint64 fits the compiler's inlining
// budget, so a draw compiles to zero function calls and one integer
// compare. The draw sequence is exactly Bool's.

// sampleSegments runs one iteration of the §6 generative process into
// k.segments: generate one program prefix, settle k.threads independent
// copies, record Γ_k = γ_k + 2. RNG draws replicate
// Config.SampleSegments exactly: m store/load draws, then each
// settle call's swap draws in round order.
func (k *Kernel) sampleSegments(src *rng.Source) {
	thr := k.storeThr
	for i := range k.typ {
		if thr == alwaysThr || (thr != neverThr && src.Uint64()>>11 < thr) {
			k.typ[i] = kindStore
		} else {
			k.typ[i] = kindLoad
		}
	}
	for t := range k.segments {
		k.segments[t] = k.settleGamma(src) + 2
	}
}

// settleGamma runs one settling pass over the generated program and
// returns γ — the final critical-window growth — without materializing
// the permutation. Rounds 1..m settle the prefix in k.order; round m+1
// walks the critical LD up a positions; round m+2 walks the critical ST
// up b ≤ a of the instructions the LD passed (they keep their relative
// order below it) until a failed draw or the same-location block at the
// LD itself. γ = a − b, exactly settle.Settle's
// perm[store] − perm[load] − 1.
func (k *Kernel) settleGamma(src *rng.Source) int {
	order := k.order
	copy(order, k.typ)
	m := len(order)
	swapThr := &k.swapThr
	// Round 1 has nothing above it; start at round 2. In round r the
	// settling instruction is x_r, still at position r-1 (earlier rounds
	// permute only the instructions above it). Kind codes are masked to
	// their 2-bit range so table lookups need no bounds checks.
	for r := 2; r <= m; r++ {
		pos := r - 1
		moving := order[pos] & 3
		for pos > 0 {
			prev := order[pos-1] & 3
			thr := swapThr[prev][moving]
			if thr == neverThr {
				break
			}
			if thr != alwaysThr && src.Uint64()>>11 >= thr {
				break
			}
			order[pos], order[pos-1] = prev, moving
			pos--
		}
	}
	a := 0
	for a < m {
		thr := swapThr[order[m-1-a]&3][kindCritLoad]
		if thr == neverThr {
			break
		}
		if thr != alwaysThr && src.Uint64()>>11 >= thr {
			break
		}
		a++
	}
	b := 0
	for b < a { // b == a is the critical LD: same location, no draw
		thr := swapThr[order[m-1-b]&3][kindCritStore]
		if thr == neverThr {
			break
		}
		if thr != alwaysThr && src.Uint64()>>11 >= thr {
			break
		}
		b++
	}
	return a - b
}

// disjointTrial draws the geometric shifts for the current segments and
// reports whether the shifted closed segments are mutually disjoint —
// the event A. Draw-for-draw and check-for-check identical to
// shift.DisjointTrial on k.segments.
func (k *Kernel) disjointTrial(src *rng.Source) bool {
	thr := k.shiftThr // Geometric.P ∈ [0,1): never the draw-free alwaysThr case
	for i := range k.shifts {
		s := 0
		if thr != neverThr {
			for src.Uint64()>>11 < thr {
				s++
			}
		}
		k.shifts[i] = s
	}
	n := len(k.shifts)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Closed-interval overlap of [sᵢ, sᵢ+Γᵢ] and [sⱼ, sⱼ+Γⱼ],
			// as shift.Placement.Disjoint checks it.
			if k.shifts[i] <= k.shifts[j]+k.segments[j] && k.shifts[j] <= k.shifts[i]+k.segments[i] {
				return false
			}
		}
	}
	return true
}

// NoBugTrial runs one full joined-process trial and reports whether the
// bug did NOT manifest (the event A) — Config.ManifestTrial negated,
// bit-identical to it on the same source.
func (k *Kernel) NoBugTrial(src *rng.Source) bool {
	k.sampleSegments(src)
	return k.disjointTrial(src)
}

// FillBits evaluates n consecutive no-bug trials into out under the
// mc.BatchTrialBits contract (LSB-first, unused final-word bits zero).
// Zero allocations per call.
func (k *Kernel) FillBits(src *rng.Source, out []uint64, n int) error {
	words := out[:mc.BitWords(n)]
	for w := range words {
		words[w] = 0
	}
	for i := 0; i < n; i++ {
		if k.NoBugTrial(src) {
			words[i>>6] |= 1 << uint(i&63)
		}
	}
	return nil
}

// NoBugBits returns the bitset-batched form of the full joined-process
// trial: bit i of the output reports whether the bug did NOT manifest
// (the event A) on the i-th trial. Each call builds a private kernel —
// a handful of allocations amortized over a whole chunk — so concurrent
// per-chunk calls share nothing mutable.
func (c Config) NoBugBits() (mc.BatchTrialBits, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cfg := c
	return func(src *rng.Source, out []uint64, n int) error {
		k, err := cfg.NewKernel()
		if err != nil {
			return err
		}
		return k.FillBits(src, out, n)
	}, nil
}
