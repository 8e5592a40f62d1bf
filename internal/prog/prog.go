// Package prog implements the paper's program model (§3.1.1, Appendix A.1):
// a random prefix of m independent LD/ST instructions followed by the two
// critical instructions of the canonical atomicity violation (§2.2) — a
// critical load and a critical store to the same shared location.
//
// Locations are abstract integers. Per A.1, every prefix instruction
// accesses its own distinct location, and only the two critical
// instructions share one (location CriticalLocation); this is the paper's
// simplifying assumption that lets any two prefix instructions reorder.
package prog

import (
	"errors"
	"fmt"
	"strings"

	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// CriticalLocation is the abstract shared location X accessed by both
// critical instructions.
const CriticalLocation = -1

// ErrBadProgram reports an invalid program construction.
var ErrBadProgram = errors.New("prog: bad program")

// Instruction is one memory operation.
type Instruction struct {
	// Type is the operation type (LD, ST, or a fence in the §7 extension).
	Type memmodel.OpType
	// Loc is the abstract memory location accessed; fences use 0.
	Loc int
	// Critical marks the two instructions of the atomicity violation.
	Critical bool
}

// String renders the instruction compactly, e.g. "ST[3]" or "LD*[X]".
func (in Instruction) String() string {
	mark := ""
	if in.Critical {
		mark = "*"
	}
	loc := fmt.Sprintf("[%d]", in.Loc)
	if in.Loc == CriticalLocation {
		loc = "[X]"
	}
	if in.Type.IsFence() {
		loc = ""
	}
	return in.Type.String() + mark + loc
}

// Program is an initial program order S0: a sequence of instructions whose
// last two entries are the critical load and critical store.
type Program struct {
	instrs []Instruction
}

// Params configures random program generation.
type Params struct {
	// PrefixLen is m, the number of random instructions before the
	// critical pair. Must be ≥ 0.
	PrefixLen int
	// StoreProb is p, the probability each prefix instruction is a ST.
	StoreProb float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.PrefixLen < 0 {
		return fmt.Errorf("%w: prefix length %d", ErrBadProgram, p.PrefixLen)
	}
	if !(0 <= p.StoreProb && p.StoreProb <= 1) { // NaN fails too
		return fmt.Errorf("%w: store probability %v", ErrBadProgram, p.StoreProb)
	}
	return nil
}

// DefaultParams returns the paper's normal form: p = 1/2 with the given
// prefix length.
func DefaultParams(prefixLen int) Params {
	return Params{PrefixLen: prefixLen, StoreProb: 0.5}
}

// Generate draws a random initial program order per §3.1.1: PrefixLen
// instructions that are ST with probability StoreProb (each to a distinct
// location), then the critical LD and critical ST to CriticalLocation.
func Generate(params Params, src *rng.Source) (*Program, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("%w: nil rng source", ErrBadProgram)
	}
	instrs := make([]Instruction, 0, params.PrefixLen+2)
	for i := 0; i < params.PrefixLen; i++ {
		typ := memmodel.Load
		if src.Bool(params.StoreProb) {
			typ = memmodel.Store
		}
		instrs = append(instrs, Instruction{Type: typ, Loc: i})
	}
	instrs = append(instrs,
		Instruction{Type: memmodel.Load, Loc: CriticalLocation, Critical: true},
		Instruction{Type: memmodel.Store, Loc: CriticalLocation, Critical: true},
	)
	return &Program{instrs: instrs}, nil
}

// FromTypes builds a program whose prefix has exactly the given types, then
// the critical pair. Used by exact enumeration and tests.
func FromTypes(prefix []memmodel.OpType) (*Program, error) {
	instrs := make([]Instruction, 0, len(prefix)+2)
	for i, t := range prefix {
		if !t.IsMemOp() && !t.IsFence() {
			return nil, fmt.Errorf("%w: prefix[%d] has type %v", ErrBadProgram, i, t)
		}
		instrs = append(instrs, Instruction{Type: t, Loc: i})
	}
	instrs = append(instrs,
		Instruction{Type: memmodel.Load, Loc: CriticalLocation, Critical: true},
		Instruction{Type: memmodel.Store, Loc: CriticalLocation, Critical: true},
	)
	return &Program{instrs: instrs}, nil
}

// Len returns the total instruction count m+2.
func (p *Program) Len() int { return len(p.instrs) }

// PrefixLen returns m.
func (p *Program) PrefixLen() int { return len(p.instrs) - 2 }

// At returns the instruction at 0-based position i in the initial order.
func (p *Program) At(i int) Instruction { return p.instrs[i] }

// CriticalLoadIndex returns the 0-based initial position of the critical
// load (the paper's x_{m+1}).
func (p *Program) CriticalLoadIndex() int { return len(p.instrs) - 2 }

// CriticalStoreIndex returns the 0-based initial position of the critical
// store (the paper's x_{m+2}).
func (p *Program) CriticalStoreIndex() int { return len(p.instrs) - 1 }

// Types returns the type sequence of the full program.
func (p *Program) Types() []memmodel.OpType {
	out := make([]memmodel.OpType, len(p.instrs))
	for i, in := range p.instrs {
		out[i] = in.Type
	}
	return out
}

// String renders the program in initial order, one instruction per token.
func (p *Program) String() string {
	parts := make([]string, len(p.instrs))
	for i, in := range p.instrs {
		parts[i] = in.String()
	}
	return strings.Join(parts, " ")
}

// CanonicalBug returns the §2.2 canonical atomicity violation as thread
// source text for documentation and the operational simulator: each of two
// threads loads shared x, increments a local, and stores back.
//
// It is provided here so every layer (abstract model, operational machine,
// examples) refers to a single definition of the bug.
func CanonicalBug() string {
	return strings.TrimSpace(`
Thread 1            Thread 2
1: int loc = x;     1: int loc = x;
2: loc = loc + 1;   2: loc = loc + 1;
3: x = loc;         3: x = loc;
`)
}
