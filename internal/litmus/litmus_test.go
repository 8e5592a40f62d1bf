package litmus

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"memreliability/internal/machine"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

func TestRegistryWellFormed(t *testing.T) {
	tests := Registry()
	if len(tests) < 7 {
		t.Fatalf("registry has %d tests", len(tests))
	}
	seen := map[string]bool{}
	for _, tc := range tests {
		if tc.Name == "" || tc.Description == "" {
			t.Errorf("test %q missing name/description", tc.Name)
		}
		if seen[tc.Name] {
			t.Errorf("duplicate test %q", tc.Name)
		}
		seen[tc.Name] = true
		if err := tc.Prog.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", tc.Name, err)
		}
		if len(tc.Target) == 0 {
			t.Errorf("%s: empty target", tc.Name)
		}
		// Every registered model — canonical or variant — must have an
		// expectation: CheckAll covers all of them and errors loudly on
		// a missing one.
		for _, model := range memmodel.Registered() {
			if _, ok := tc.AllowedUnder[model.Name()]; !ok {
				t.Errorf("%s: no expectation for %s", tc.Name, model.Name())
			}
		}
	}
}

func TestByName(t *testing.T) {
	tc, err := ByName("SB")
	if err != nil || tc.Name != "SB" {
		t.Errorf("ByName(SB) = %v, %v", tc.Name, err)
	}
	if _, err := ByName("NOPE"); !errors.Is(err, ErrUnknownTest) {
		t.Errorf("ByName(NOPE) err = %v", err)
	}
}

// TestCommittedRegistryFile pins registry.litmus to the printer's
// canonical form: printing the parsed registry reproduces the embedded
// file byte for byte, so the file has one spelling and no drift.
func TestCommittedRegistryFile(t *testing.T) {
	printed, err := Print(Registry()...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(printed, registrySource) {
		t.Errorf("registry.litmus is not in canonical printed form:\n%s", printed)
	}
}

func TestCheckAllConforms(t *testing.T) {
	// The E13 conformance matrix: every registered expectation must match
	// exhaustive exploration under every model. This pins the simulator's
	// relaxed behaviours to exactly what Table 1 permits.
	results, err := CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Registry())*len(memmodel.Registered()) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if !r.Conforms() {
			t.Errorf("%s under %s: reachable=%v but expected %v",
				r.Test, r.Model, r.Reachable, r.Expected)
		}
		if r.Outcomes < 1 {
			t.Errorf("%s under %s: %d outcomes", r.Test, r.Model, r.Outcomes)
		}
	}
}

// TestCheckAllGolden pins the conformance matrix bytes that GET
// /v1/litmus serves and litmusrun -json prints. A deliberate change to
// registry.litmus or to the machine regenerates the golden with
// `go run ./cmd/litmusrun -json > internal/litmus/testdata/golden_matrix.json`.
func TestCheckAllGolden(t *testing.T) {
	results, err := CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := EncodeResultsJSON(&got, results); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_matrix.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("conformance matrix differs from testdata/golden_matrix.json:\n%s", got.Bytes())
	}
}

func TestMonotoneOutcomeCounts(t *testing.T) {
	// Weaker models can only add reachable outcomes.
	for _, tc := range Registry() {
		prev := -1
		for _, model := range memmodel.All() { // strictness order
			r, err := Check(tc, model)
			if err != nil {
				t.Fatal(err)
			}
			if r.Outcomes < prev {
				t.Errorf("%s: outcomes shrank from %d to %d at %s",
					tc.Name, prev, r.Outcomes, model.Name())
			}
			prev = r.Outcomes
		}
	}
}

func TestCheckValidation(t *testing.T) {
	if _, err := Check(Test{}, memmodel.SC()); !errors.Is(err, ErrBadTest) {
		t.Error("empty test accepted")
	}
	tc, err := ByName("SB")
	if err != nil {
		t.Fatal(err)
	}
	custom, err := memmodel.New("custom", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(tc, custom); !errors.Is(err, ErrBadTest) {
		t.Error("model without expectation accepted")
	}
}

func TestConditionHoldsAndString(t *testing.T) {
	o := machine.Outcome{
		Mem:  map[string]int{"x": 1},
		Regs: []map[string]int{{"r1": 0}},
	}
	c := Condition{"x": 1, "t0:r1": 0}
	ok, err := c.Holds(o)
	if err != nil || !ok {
		t.Errorf("Holds = %v, %v", ok, err)
	}
	c2 := Condition{"x": 2}
	ok, err = c2.Holds(o)
	if err != nil || ok {
		t.Errorf("Holds = %v, %v, want false", ok, err)
	}
	if got := c.String(); got != "t0:r1=0 ∧ x=1" {
		t.Errorf("String = %q", got)
	}
}

func TestTargetFrequencyINC(t *testing.T) {
	// The increment race manifests with noticeable frequency under a
	// random scheduler in every model, and never produces x ∉ {1,2}.
	src := rng.New(1)
	tc, err := ByName("INC")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range memmodel.All() {
		f, err := TargetFrequency(tc, model, 5000, src)
		if err != nil {
			t.Fatal(err)
		}
		if f <= 0.05 || f >= 0.95 {
			t.Errorf("%s: INC bug frequency %v implausible", model.Name(), f)
		}
	}
}

func TestTargetFrequencyForbiddenIsZero(t *testing.T) {
	// A forbidden outcome must never be observed, no matter how many runs.
	src := rng.New(2)
	tc, err := ByName("SB")
	if err != nil {
		t.Fatal(err)
	}
	f, err := TargetFrequency(tc, memmodel.SC(), 20000, src)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Errorf("SC SB relaxed frequency = %v, want 0", f)
	}
}

func TestTargetFrequencyValidation(t *testing.T) {
	tc, err := ByName("SB")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TargetFrequency(tc, memmodel.SC(), 0, rng.New(1)); !errors.Is(err, ErrBadTest) {
		t.Error("0 runs accepted")
	}
	if _, err := TargetFrequency(tc, memmodel.SC(), 10, nil); !errors.Is(err, ErrBadTest) {
		t.Error("nil source accepted")
	}
}
