// Package memmodel defines memory consistency models as reordering-
// permission matrices, exactly as the paper's Table 1 presents them.
//
// A model is characterized by which ordered pairs of memory-operation types
// may reorder: a "relaxed" entry (prev=ST, moving=LD) means a load may
// complete before a store that precedes it in program order — in the
// settling process of §3.1.2, a LD may settle past (swap with) a preceding
// ST. The four canonical models:
//
//	Sequential Consistency (SC):  nothing reorders.
//	Total Store Order (TSO):      ST→LD relaxed.
//	Partial Store Order (PSO):    ST→LD and ST→ST relaxed.
//	Weak Ordering (WO):           all four pairs relaxed.
//
// The package also models the §7 extension: acquire/release fences as
// one-way barriers for the settling process, and the generalized per-pair
// swap probabilities of footnote 3.
package memmodel

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// OpType is the type of a memory operation.
type OpType int

// Memory operation types. Fence types support the §7 extension; they are
// never generated by the random program model unless explicitly inserted.
const (
	// Load is a memory read (LD).
	Load OpType = iota + 1
	// Store is a memory write (ST).
	Store
	// FenceAcquire is a one-way barrier: no later instruction may settle
	// (reorder) above it, but it otherwise leaves settling unchanged.
	// Together with FenceRelease it brackets a critical section that
	// instructions may reorder into but not out of.
	FenceAcquire
	// FenceRelease is the closing one-way barrier of a critical section.
	// Instructions below it may settle past it (into the section), but the
	// fence itself never moves.
	FenceRelease
	// FenceFull is a two-sided barrier: nothing settles past it.
	FenceFull
)

// String returns the conventional mnemonic.
func (t OpType) String() string {
	switch t {
	case Load:
		return "LD"
	case Store:
		return "ST"
	case FenceAcquire:
		return "ACQ"
	case FenceRelease:
		return "REL"
	case FenceFull:
		return "FENCE"
	default:
		return fmt.Sprintf("OpType(%d)", int(t))
	}
}

// IsMemOp reports whether t is a plain memory operation (LD or ST).
func (t OpType) IsMemOp() bool { return t == Load || t == Store }

// IsFence reports whether t is any fence variety.
func (t OpType) IsFence() bool {
	return t == FenceAcquire || t == FenceRelease || t == FenceFull
}

// Pair identifies an ordered pair of instruction types (Prev appears
// earlier in program order; Moving is the later instruction that would
// settle upward past Prev).
type Pair struct {
	Prev   OpType
	Moving OpType
}

// pairBit returns the bit of a model's relaxation mask that stands for
// the ordered pair (prev, moving), or 0 unless both are plain memory
// operations. Bit i is column i of Table 1 in the paper's order: ST/ST,
// ST/LD, LD/ST, LD/LD.
func pairBit(prev, moving OpType) uint8 {
	if !prev.IsMemOp() || !moving.IsMemOp() {
		return 0
	}
	// Store−t is 0 for ST and 1 for LD, so the index is prev's column
	// half (ST/· then LD/·) plus moving's place within it.
	return 1 << uint((Store-prev)<<1|(Store-moving))
}

// ErrUnknownModel reports a model name that is not registered.
var ErrUnknownModel = errors.New("memmodel: unknown model")

// ErrBadModel reports an invalid model definition.
var ErrBadModel = errors.New("memmodel: bad model definition")

// Model is a memory consistency model: a name plus the set of relaxed
// ordered pairs. The zero value is invalid; use one of the constructors.
type Model struct {
	name string
	// relaxed is the relaxation set: one pairBit bit per relaxed pair.
	relaxed uint8
}

// New returns a custom model relaxing exactly the given pairs. Pairs must
// involve only plain memory operations.
func New(name string, relaxed []Pair) (Model, error) {
	if name == "" {
		return Model{}, fmt.Errorf("%w: empty name", ErrBadModel)
	}
	m := Model{name: name}
	for _, p := range relaxed {
		bit := pairBit(p.Prev, p.Moving)
		if bit == 0 {
			return Model{}, fmt.Errorf("%w: pair %v/%v is not a memory-op pair",
				ErrBadModel, p.Prev, p.Moving)
		}
		m.relaxed |= bit
	}
	return m, nil
}

// SC returns Sequential Consistency: no reordering.
func SC() Model {
	m, err := New("SC", nil)
	if err != nil {
		panic(err) // unreachable: static definition
	}
	return m
}

// TSO returns Total Store Order: loads may settle past preceding stores.
func TSO() Model {
	m, err := New("TSO", []Pair{{Store, Load}})
	if err != nil {
		panic(err) // unreachable: static definition
	}
	return m
}

// PSO returns Partial Store Order: TSO plus store-store relaxation.
func PSO() Model {
	m, err := New("PSO", []Pair{{Store, Load}, {Store, Store}})
	if err != nil {
		panic(err) // unreachable: static definition
	}
	return m
}

// WO returns Weak Ordering: every pair may reorder.
func WO() Model {
	m, err := New("WO", []Pair{
		{Store, Store}, {Store, Load}, {Load, Store}, {Load, Load},
	})
	if err != nil {
		panic(err) // unreachable: static definition
	}
	return m
}

// All returns the four canonical models in strictness order (strongest
// first), the order the paper compares them in.
func All() []Model {
	return []Model{SC(), TSO(), PSO(), WO()}
}

// ByName returns the registered model with the given (case-insensitive)
// name: one of the canonical four, a built-in variant (RMO, LRO), or
// anything added with Register.
func ByName(name string) (Model, error) {
	registry.RLock()
	m, ok := registry.byName[strings.ToLower(name)]
	registry.RUnlock()
	if !ok {
		names := make([]string, 0, 8)
		for _, r := range Registered() {
			names = append(names, r.Name())
		}
		return Model{}, fmt.Errorf("%w: %q (want one of %s)",
			ErrUnknownModel, name, strings.Join(names, ", "))
	}
	return m, nil
}

// Name returns the model's name.
func (m Model) Name() string { return m.name }

// Relaxed reports whether the later instruction of type moving may settle
// past a preceding instruction of type prev.
//
// Fence semantics (§7 extension): nothing settles past FenceAcquire or
// FenceFull; anything may settle past FenceRelease (reordering *into* a
// critical section); fences themselves never settle past anything.
func (m Model) Relaxed(prev, moving OpType) bool {
	if moving.IsFence() {
		return false
	}
	switch prev {
	case FenceAcquire, FenceFull:
		return false
	case FenceRelease:
		return true
	}
	return m.relaxed&pairBit(prev, moving) != 0
}

// RelaxedPairCount returns how many of the four Table 1 entries are
// relaxed; it orders models by weakness (SC=0, TSO=1, PSO=2, WO=4).
func (m Model) RelaxedPairCount() int {
	return bits.OnesCount8(m.relaxed)
}

// StrongerThan reports whether m permits a strict subset of the
// reorderings of other.
func (m Model) StrongerThan(other Model) bool {
	return m.relaxed&^other.relaxed == 0 && m.relaxed != other.relaxed
}

// Table1Row returns the model's row of Table 1: one boolean per column in
// the paper's order (ST/ST, ST/LD, LD/ST, LD/LD).
func (m Model) Table1Row() [4]bool {
	var row [4]bool
	for i := range row {
		row[i] = m.relaxed>>uint(i)&1 != 0
	}
	return row
}

// Table1Columns returns the column labels of Table 1 in order.
func Table1Columns() [4]string {
	return [4]string{"ST/ST", "ST/LD", "LD/ST", "LD/LD"}
}

// SwapProbabilities maps each ordered pair to its settling swap-success
// probability, realizing footnote 3's generalization ("sLD,LD can be
// different from sLD,ST"). The zero value is invalid; use Uniform or
// NewSwapProbabilities.
type SwapProbabilities struct {
	probs map[Pair]float64
	def   float64
}

// Uniform returns the paper's normal form: every relaxed pair swaps with
// the same probability s.
func Uniform(s float64) (SwapProbabilities, error) {
	if !(0 <= s && s <= 1) { // NaN fails too
		return SwapProbabilities{}, fmt.Errorf("%w: swap probability %v not in [0,1]", ErrBadModel, s)
	}
	return SwapProbabilities{def: s}, nil
}

// NewSwapProbabilities returns per-pair probabilities; pairs not listed use
// the default def.
func NewSwapProbabilities(def float64, perPair map[Pair]float64) (SwapProbabilities, error) {
	if !(0 <= def && def <= 1) { // NaN fails too
		return SwapProbabilities{}, fmt.Errorf("%w: default swap probability %v", ErrBadModel, def)
	}
	sp := SwapProbabilities{def: def, probs: make(map[Pair]float64, len(perPair))}
	for p, v := range perPair {
		if !(0 <= v && v <= 1) {
			return SwapProbabilities{}, fmt.Errorf("%w: swap probability %v for %v/%v",
				ErrBadModel, v, p.Prev, p.Moving)
		}
		if !p.Prev.IsMemOp() || !p.Moving.IsMemOp() {
			return SwapProbabilities{}, fmt.Errorf("%w: pair %v/%v is not a memory-op pair",
				ErrBadModel, p.Prev, p.Moving)
		}
		sp.probs[p] = v
	}
	return sp, nil
}

// For returns ρ(prev, moving): the probability that a permitted swap of a
// moving instruction past prev succeeds. It does not consult the model;
// combine with Model.Relaxed as the settling process does.
func (sp SwapProbabilities) For(prev, moving OpType) float64 {
	if v, ok := sp.probs[Pair{Prev: prev, Moving: moving}]; ok {
		return v
	}
	return sp.def
}
