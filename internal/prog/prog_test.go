package prog

import (
	"errors"
	"math"
	"strings"
	"testing"

	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

func TestGenerateShape(t *testing.T) {
	src := rng.New(1)
	p, err := Generate(DefaultParams(10), src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 12 || p.PrefixLen() != 10 {
		t.Fatalf("Len=%d PrefixLen=%d", p.Len(), p.PrefixLen())
	}
	cl := p.At(p.CriticalLoadIndex())
	cs := p.At(p.CriticalStoreIndex())
	if cl.Type != memmodel.Load || !cl.Critical || cl.Loc != CriticalLocation {
		t.Errorf("critical load = %+v", cl)
	}
	if cs.Type != memmodel.Store || !cs.Critical || cs.Loc != CriticalLocation {
		t.Errorf("critical store = %+v", cs)
	}
	if p.CriticalLoadIndex() != 10 || p.CriticalStoreIndex() != 11 {
		t.Errorf("critical indices %d, %d", p.CriticalLoadIndex(), p.CriticalStoreIndex())
	}
}

func TestGenerateDistinctLocations(t *testing.T) {
	src := rng.New(2)
	p, err := Generate(DefaultParams(50), src)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < p.PrefixLen(); i++ {
		loc := p.At(i).Loc
		if loc == CriticalLocation {
			t.Fatalf("prefix instruction %d uses the critical location", i)
		}
		if seen[loc] {
			t.Fatalf("duplicate prefix location %d", loc)
		}
		seen[loc] = true
	}
}

func TestGenerateStoreFraction(t *testing.T) {
	src := rng.New(3)
	for _, pStore := range []float64{0.25, 0.5, 0.75} {
		stores, total := 0, 0
		for trial := 0; trial < 200; trial++ {
			p, err := Generate(Params{PrefixLen: 100, StoreProb: pStore}, src)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p.PrefixLen(); i++ {
				total++
				if p.At(i).Type == memmodel.Store {
					stores++
				}
			}
		}
		frac := float64(stores) / float64(total)
		if math.Abs(frac-pStore) > 0.02 {
			t.Errorf("p=%v: store fraction %v", pStore, frac)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	src := rng.New(4)
	if _, err := Generate(Params{PrefixLen: -1, StoreProb: 0.5}, src); !errors.Is(err, ErrBadProgram) {
		t.Error("negative prefix accepted")
	}
	if _, err := Generate(Params{PrefixLen: 1, StoreProb: 1.5}, src); !errors.Is(err, ErrBadProgram) {
		t.Error("bad probability accepted")
	}
	if _, err := Generate(Params{PrefixLen: 1, StoreProb: math.NaN()}, src); !errors.Is(err, ErrBadProgram) {
		t.Error("NaN probability accepted")
	}
	if _, err := Generate(DefaultParams(1), nil); !errors.Is(err, ErrBadProgram) {
		t.Error("nil source accepted")
	}
}

func TestGenerateZeroPrefix(t *testing.T) {
	src := rng.New(5)
	p, err := Generate(DefaultParams(0), src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestFromTypes(t *testing.T) {
	p, err := FromTypes([]memmodel.OpType{memmodel.Store, memmodel.Load, memmodel.Store})
	if err != nil {
		t.Fatal(err)
	}
	types := p.Types()
	want := []memmodel.OpType{
		memmodel.Store, memmodel.Load, memmodel.Store,
		memmodel.Load, memmodel.Store,
	}
	if len(types) != len(want) {
		t.Fatalf("types len %d", len(types))
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("types[%d] = %v, want %v", i, types[i], want[i])
		}
	}
	if _, err := FromTypes([]memmodel.OpType{memmodel.OpType(42)}); !errors.Is(err, ErrBadProgram) {
		t.Error("invalid type accepted")
	}
}

func TestFromTypesWithFences(t *testing.T) {
	p, err := FromTypes([]memmodel.OpType{memmodel.Store, memmodel.FenceAcquire})
	if err != nil {
		t.Fatal(err)
	}
	if p.At(1).Type != memmodel.FenceAcquire {
		t.Errorf("fence not preserved: %v", p.At(1))
	}
}

func TestString(t *testing.T) {
	p, err := FromTypes([]memmodel.OpType{memmodel.Store})
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"ST[0]", "LD*[X]", "ST*[X]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestInstructionStringFence(t *testing.T) {
	in := Instruction{Type: memmodel.FenceFull}
	if got := in.String(); got != "FENCE" {
		t.Errorf("fence String() = %q", got)
	}
}

func TestCanonicalBug(t *testing.T) {
	text := CanonicalBug()
	for _, want := range []string{"Thread 1", "Thread 2", "int loc = x", "x = loc"} {
		if !strings.Contains(text, want) {
			t.Errorf("CanonicalBug missing %q", want)
		}
	}
}
