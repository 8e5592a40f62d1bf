package core

import (
	"fmt"

	"memreliability/internal/dist"
	"memreliability/internal/memmodel"
)

// KernelIR is the intermediate representation both trial engines build
// from: the full decision surface of one (model, n, m, p, s) query,
// lowered to integer draw thresholds (see drawThreshold). Extracting it
// as an explicit compile step is what makes a two-engine architecture
// possible — the table-driven Kernel *interprets* the IR, while the
// compiler engine (compile.go) lowers it further onto decision streams
// and runs the Kernel's loops where no stream form takes the surface —
// and guarantees both engines answer every swap/store/shift question
// from the same precomputed numbers.
//
// A KernelIR is immutable after BuildIR and safe to share.
type KernelIR struct {
	// Threads is n, the number of settled program copies per trial.
	Threads int
	// PrefixLen is m, the random-program prefix length.
	PrefixLen int
	// StoreThr is the draw threshold for generating a prefix ST.
	StoreThr uint64
	// ShiftThr is the draw threshold of the geometric shift's success
	// probability (dist.StandardShift).
	ShiftThr uint64
	// SwapThr[p][m] is the swap decision surface in threshold form: the
	// success threshold when kind m may settle past kind p, and neverThr
	// when the pair is forbidden — by the same-location rule (crit-crit,
	// footnote 2) or the model's relaxation matrix.
	SwapThr [4][4]uint64
}

// BuildIR validates the configuration and lowers it to the kernel IR.
// This is the single place the model's relaxation matrix and the paper's
// probabilities are consulted; everything downstream is integer compares.
func (c Config) BuildIR() (*KernelIR, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sp, err := memmodel.Uniform(c.SwapProb)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ir := &KernelIR{
		Threads:   c.Threads,
		PrefixLen: c.PrefixLen,
		StoreThr:  drawThreshold(c.StoreProb),
		ShiftThr:  drawThreshold(dist.StandardShift().P),
	}
	for p := 0; p < 4; p++ {
		for m := 0; m < 4; m++ {
			if p >= 2 && m >= 2 {
				// Both critical: same location, swap automatically fails
				// (footnote 2 — the critical ST never passes the critical LD).
				continue
			}
			if c.Model.Relaxed(kindType[p], kindType[m]) {
				ir.SwapThr[p][m] = drawThreshold(sp.For(kindType[p], kindType[m]))
			}
		}
	}
	return ir, nil
}

// uniformSwap reports whether every permitted swap pair shares a single
// draw threshold, and if so returns the permission masks and that
// threshold. mask[p] has bit m set iff kind m may settle past kind p.
// Config.BuildIR always produces a uniform surface (memmodel.Uniform),
// so for IRs built from a Config this always succeeds; Compile rejects
// a hand-built IR with per-pair thresholds.
func (ir *KernelIR) uniformSwap() (mask [4]uint8, thr uint64, ok bool) {
	thr = neverThr
	for p := 0; p < 4; p++ {
		for m := 0; m < 4; m++ {
			t := ir.SwapThr[p][m]
			if t == neverThr {
				continue
			}
			if thr == neverThr {
				thr = t
			} else if t != thr {
				return [4]uint8{}, 0, false
			}
			mask[p] |= 1 << uint(m)
		}
	}
	return mask, thr, true
}

// NewKernel builds the table-driven (interpreter) engine for the IR. It
// counts no build: Config.NewKernel, the mc kind's constructor, does.
func (ir *KernelIR) NewKernel() *Kernel {
	return &Kernel{
		threads:  ir.Threads,
		storeThr: ir.StoreThr,
		shiftThr: ir.ShiftThr,
		swapThr:  ir.SwapThr,
		typ:      make([]uint8, ir.PrefixLen),
		order:    make([]uint8, ir.PrefixLen),
		segments: make([]int, ir.Threads),
		shifts:   make([]int, ir.Threads),
	}
}
