package memmodel

import (
	"errors"
	"math"
	"testing"
)

func TestTable1Matrix(t *testing.T) {
	// Table 1 of the paper, verbatim: a true entry means the ordering
	// restriction is relaxed.
	want := map[string][4]bool{
		"SC":  {false, false, false, false},
		"TSO": {false, true, false, false},
		"PSO": {true, true, false, false},
		"WO":  {true, true, true, true},
	}
	for _, m := range All() {
		row := m.Table1Row()
		if row != want[m.Name()] {
			t.Errorf("%s row = %v, want %v", m.Name(), row, want[m.Name()])
		}
	}
	cols := Table1Columns()
	if cols != [4]string{"ST/ST", "ST/LD", "LD/ST", "LD/LD"} {
		t.Errorf("columns = %v", cols)
	}
}

func TestRelaxedSemantics(t *testing.T) {
	// TSO: a LD may settle past a preceding ST, nothing else.
	tso := TSO()
	if !tso.Relaxed(Store, Load) {
		t.Error("TSO must relax ST→LD")
	}
	for _, pair := range []Pair{{Store, Store}, {Load, Store}, {Load, Load}} {
		if tso.Relaxed(pair.Prev, pair.Moving) {
			t.Errorf("TSO must not relax %v→%v", pair.Prev, pair.Moving)
		}
	}
	// SC: nothing.
	sc := SC()
	for _, prev := range []OpType{Load, Store} {
		for _, moving := range []OpType{Load, Store} {
			if sc.Relaxed(prev, moving) {
				t.Errorf("SC must not relax %v→%v", prev, moving)
			}
		}
	}
	// WO: everything.
	wo := WO()
	for _, prev := range []OpType{Load, Store} {
		for _, moving := range []OpType{Load, Store} {
			if !wo.Relaxed(prev, moving) {
				t.Errorf("WO must relax %v→%v", prev, moving)
			}
		}
	}
}

func TestFenceSemantics(t *testing.T) {
	wo := WO()
	// Nothing settles past acquire or full fences, even under WO.
	if wo.Relaxed(FenceAcquire, Load) || wo.Relaxed(FenceAcquire, Store) {
		t.Error("acquire fence must block settling")
	}
	if wo.Relaxed(FenceFull, Load) || wo.Relaxed(FenceFull, Store) {
		t.Error("full fence must block settling")
	}
	// Anything settles past a release fence (into the critical section).
	if !wo.Relaxed(FenceRelease, Load) || !wo.Relaxed(FenceRelease, Store) {
		t.Error("release fence must allow settling into the section")
	}
	// Fences themselves never move.
	for _, f := range []OpType{FenceAcquire, FenceRelease, FenceFull} {
		if wo.Relaxed(Store, f) || wo.Relaxed(Load, f) {
			t.Errorf("%v must never settle", f)
		}
	}
	// Release-fence transparency holds even under SC (fences are modeled
	// orthogonally to the Table 1 matrix).
	if !SC().Relaxed(FenceRelease, Load) {
		t.Error("release fence transparency should not depend on the model matrix")
	}
}

func TestStrictnessOrder(t *testing.T) {
	models := All()
	if len(models) != 4 {
		t.Fatalf("All() returned %d models", len(models))
	}
	wantCounts := []int{0, 1, 2, 4}
	for i, m := range models {
		if got := m.RelaxedPairCount(); got != wantCounts[i] {
			t.Errorf("%s relaxed pair count = %d, want %d", m.Name(), got, wantCounts[i])
		}
	}
	// SC < TSO < PSO < WO in the reordering-subset partial order.
	for i := 0; i < len(models); i++ {
		for j := 0; j < len(models); j++ {
			got := models[i].StrongerThan(models[j])
			want := i < j
			if got != want {
				t.Errorf("%s.StrongerThan(%s) = %v, want %v",
					models[i].Name(), models[j].Name(), got, want)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"SC", "tso", "Pso", "wo"} {
		m, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if m.Name() == "" {
			t.Errorf("ByName(%q) returned unnamed model", name)
		}
	}
	if _, err := ByName("RC"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("ByName(RC) err = %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", nil); !errors.Is(err, ErrBadModel) {
		t.Error("empty name accepted")
	}
	if _, err := New("x", []Pair{{FenceFull, Load}}); !errors.Is(err, ErrBadModel) {
		t.Error("fence pair accepted in matrix")
	}
	m, err := New("custom", []Pair{{Load, Load}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Relaxed(Load, Load) || m.Relaxed(Store, Load) {
		t.Error("custom matrix wrong")
	}
}

func TestOpTypeString(t *testing.T) {
	cases := map[OpType]string{
		Load: "LD", Store: "ST", FenceAcquire: "ACQ",
		FenceRelease: "REL", FenceFull: "FENCE", OpType(99): "OpType(99)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(op), got, want)
		}
	}
	if !Load.IsMemOp() || !Store.IsMemOp() || FenceFull.IsMemOp() {
		t.Error("IsMemOp wrong")
	}
	if !FenceAcquire.IsFence() || Load.IsFence() {
		t.Error("IsFence wrong")
	}
}

func TestUniformSwapProbabilities(t *testing.T) {
	if _, err := Uniform(-0.1); !errors.Is(err, ErrBadModel) {
		t.Error("negative s accepted")
	}
	if _, err := Uniform(1.1); !errors.Is(err, ErrBadModel) {
		t.Error("s > 1 accepted")
	}
	if _, err := Uniform(math.NaN()); !errors.Is(err, ErrBadModel) {
		t.Error("NaN s accepted")
	}
	sp, err := Uniform(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, prev := range []OpType{Load, Store} {
		for _, moving := range []OpType{Load, Store} {
			if sp.For(prev, moving) != 0.5 {
				t.Errorf("For(%v,%v) = %v", prev, moving, sp.For(prev, moving))
			}
		}
	}
}

func TestPerPairSwapProbabilities(t *testing.T) {
	sp, err := NewSwapProbabilities(0.5, map[Pair]float64{
		{Store, Load}: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp.For(Store, Load) != 0.9 {
		t.Errorf("For(ST,LD) = %v", sp.For(Store, Load))
	}
	if sp.For(Load, Load) != 0.5 {
		t.Errorf("For(LD,LD) = %v", sp.For(Load, Load))
	}
	if _, err := NewSwapProbabilities(0.5, map[Pair]float64{{Store, Load}: 2}); !errors.Is(err, ErrBadModel) {
		t.Error("out-of-range per-pair probability accepted")
	}
	if _, err := NewSwapProbabilities(0.5, map[Pair]float64{{FenceFull, Load}: 0.5}); !errors.Is(err, ErrBadModel) {
		t.Error("fence pair accepted")
	}
	if _, err := NewSwapProbabilities(-1, nil); !errors.Is(err, ErrBadModel) {
		t.Error("bad default accepted")
	}
	if _, err := NewSwapProbabilities(math.NaN(), nil); !errors.Is(err, ErrBadModel) {
		t.Error("NaN default accepted")
	}
	if _, err := NewSwapProbabilities(0.5, map[Pair]float64{{Store, Load}: math.NaN()}); !errors.Is(err, ErrBadModel) {
		t.Error("NaN per-pair probability accepted")
	}
}

// TestRelaxationMaskMatchesPairSet checks the mask encoding against the
// set semantics it replaces, exhaustively: every subset of the four
// Table 1 pairs as a model, every (prev, moving) pair of types including
// fences and invalid values, and every pair of subsets for StrongerThan.
func TestRelaxationMaskMatchesPairSet(t *testing.T) {
	columns := []Pair{{Store, Store}, {Store, Load}, {Load, Store}, {Load, Load}}
	subset := func(bits int) (Model, map[Pair]bool) {
		set := map[Pair]bool{}
		var pairs []Pair
		for i, p := range columns {
			if bits>>i&1 != 0 {
				set[p] = true
				pairs = append(pairs, p, p) // duplicates are harmless
			}
		}
		m, err := New("m", pairs)
		if err != nil {
			t.Fatal(err)
		}
		return m, set
	}
	types := []OpType{0, Load, Store, FenceAcquire, FenceRelease, FenceFull, 99}
	for a := 0; a < 16; a++ {
		m, set := subset(a)
		for _, prev := range types {
			for _, moving := range types {
				want := set[Pair{prev, moving}]
				switch {
				case moving.IsFence(), prev == FenceAcquire, prev == FenceFull:
					want = false
				case prev == FenceRelease:
					want = true
				}
				if got := m.Relaxed(prev, moving); got != want {
					t.Errorf("set %04b: Relaxed(%v, %v) = %v, want %v", a, prev, moving, got, want)
				}
			}
		}
		row := m.Table1Row()
		for i, p := range columns {
			if row[i] != set[p] {
				t.Errorf("set %04b: Table1Row()[%d] = %v", a, i, row[i])
			}
		}
		if got := m.RelaxedPairCount(); got != len(set) {
			t.Errorf("set %04b: RelaxedPairCount() = %d, want %d", a, got, len(set))
		}
		for b := 0; b < 16; b++ {
			other, otherSet := subset(b)
			want := len(set) < len(otherSet)
			for p := range set {
				want = want && otherSet[p]
			}
			if got := m.StrongerThan(other); got != want {
				t.Errorf("set %04b StrongerThan set %04b = %v, want %v", a, b, got, want)
			}
		}
	}
}
