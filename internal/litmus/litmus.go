// Package litmus is a herd/litmus7-style harness over the machine
// simulator: named litmus tests with a distinguished "relaxed" target
// outcome, per-model allowed/forbidden expectations, exhaustive outcome
// enumeration, and randomized frequency measurement.
//
// Tests are written in a small text DSL (Parse and its inverse Print).
// The built-in registry is one DSL file, registry.litmus, embedded in the
// package: the canonical shapes SB, MP, LB, 2+2W, CoRR, IRIW, R and S,
// the always-forbidden LB+deps, MP+fences and CoWR, and the paper's §2.2
// increment race INC. Expectations are for a store-atomic machine — the
// paper explicitly sets store-atomicity aside (§2.1), so IRIW's relaxed
// outcome is reachable only via LD/LD reordering, not via non-atomic
// store propagation.
package litmus

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"memreliability/internal/machine"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// ErrUnknownTest reports a test name not in the registry.
var ErrUnknownTest = errors.New("litmus: unknown test")

// ErrBadTest reports an invalid test definition.
var ErrBadTest = errors.New("litmus: bad test")

// Condition is a conjunction of equalities over outcome references
// (machine.Outcome.Lookup syntax: "addr" or "t<i>:<reg>").
type Condition map[string]int

// Holds reports whether the outcome satisfies the condition.
func (c Condition) Holds(o machine.Outcome) (bool, error) {
	for ref, want := range c {
		got, err := o.Lookup(ref)
		if err != nil {
			return false, fmt.Errorf("litmus: %w", err)
		}
		if got != want {
			return false, nil
		}
	}
	return true, nil
}

// String renders the condition deterministically.
func (c Condition) String() string {
	refs := make([]string, 0, len(c))
	for ref := range c {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	s := ""
	for i, ref := range refs {
		if i > 0 {
			s += " ∧ "
		}
		s += fmt.Sprintf("%s=%d", ref, c[ref])
	}
	return s
}

// Test is one litmus test.
type Test struct {
	// Name is the conventional test mnemonic.
	Name string
	// Description says what relaxation the test witnesses.
	Description string
	// Prog is the machine program.
	Prog machine.Program
	// Target is the interesting (usually relaxed) outcome.
	Target Condition
	// AllowedUnder maps model names to whether Target is reachable.
	AllowedUnder map[string]bool
}

// registrySource is the one definition of the built-in tests.
//
//go:embed registry.litmus
var registrySource []byte

// Registry returns the built-in tests in registry.litmus order. Each call
// parses the embedded file afresh, so callers own the returned maps; the
// file is part of the program, so a parse failure is a bug and panics.
func Registry() []Test {
	tests, err := Parse("registry.litmus", registrySource)
	if err != nil {
		panic(fmt.Sprintf("litmus: built-in registry: %v", err))
	}
	return tests
}

// ByName returns the registered test with the given name.
func ByName(name string) (Test, error) {
	for _, t := range Registry() {
		if t.Name == name {
			return t, nil
		}
	}
	return Test{}, fmt.Errorf("%w: %q", ErrUnknownTest, name)
}

// Result is the outcome of checking one test under one model.
type Result struct {
	Test  string
	Model string
	// Target is the rendered target condition.
	Target string
	// Reachable reports whether the target outcome is reachable
	// (exhaustive exploration).
	Reachable bool
	// Expected is the registry's expectation.
	Expected bool
	// Outcomes is the number of distinct reachable final states.
	Outcomes int
}

// Conforms reports whether observation matched expectation.
func (r Result) Conforms() bool { return r.Reachable == r.Expected }

// MarshalJSON emits the machine-readable record, including the derived
// Conforms field. This is the single wire encoding of a conformance
// result; cmd/litmusrun -json and the serve API's GET /v1/litmus both
// emit it, so the two cannot drift apart.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Test      string `json:"test"`
		Model     string `json:"model"`
		Target    string `json:"target"`
		Reachable bool   `json:"reachable"`
		Expected  bool   `json:"expected"`
		Conforms  bool   `json:"conforms"`
		Outcomes  int    `json:"outcomes"`
	}{r.Test, r.Model, r.Target, r.Reachable, r.Expected, r.Conforms(), r.Outcomes})
}

// EncodeResultsJSON writes results as indented JSON followed by a
// newline — the shared machine-readable encoding of litmus conformance.
// Encoding the same results always produces identical bytes.
func EncodeResultsJSON(w io.Writer, results []Result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return fmt.Errorf("litmus: encode results: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("litmus: write results: %w", err)
	}
	return nil
}

// Check exhaustively explores the test under the model and compares the
// target's reachability against the expectation.
func Check(t Test, model memmodel.Model) (Result, error) {
	if t.Name == "" || len(t.Target) == 0 {
		return Result{}, fmt.Errorf("%w: unnamed test or empty target", ErrBadTest)
	}
	outcomes, err := machine.Explore(t.Prog, model, machine.ExploreConfig{})
	if err != nil {
		return Result{}, fmt.Errorf("litmus: explore %s under %s: %w", t.Name, model.Name(), err)
	}
	reachable := false
	for _, o := range outcomes {
		ok, err := t.Target.Holds(o)
		if err != nil {
			return Result{}, err
		}
		if ok {
			reachable = true
			break
		}
	}
	expected, known := t.AllowedUnder[model.Name()]
	if !known {
		return Result{}, fmt.Errorf("%w: test %s has no expectation for model %s",
			ErrBadTest, t.Name, model.Name())
	}
	return Result{
		Test:      t.Name,
		Model:     model.Name(),
		Target:    t.Target.String(),
		Reachable: reachable,
		Expected:  expected,
		Outcomes:  len(outcomes),
	}, nil
}

// CheckAll runs every registered test under every registered memory
// model — the canonical four plus every variant in the memmodel
// registry. A test with no expectation for some registered model is a
// loud error (from Check), never a silent allowed=false row.
func CheckAll() ([]Result, error) {
	var results []Result
	for _, t := range Registry() {
		for _, model := range memmodel.Registered() {
			r, err := Check(t, model)
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
	}
	return results, nil
}

// TargetFrequency measures how often the target outcome occurs under a
// uniform random scheduler, over the given number of runs.
func TargetFrequency(t Test, model memmodel.Model, runs int, src *rng.Source) (float64, error) {
	if runs <= 0 {
		return 0, fmt.Errorf("%w: runs=%d", ErrBadTest, runs)
	}
	if src == nil {
		return 0, fmt.Errorf("%w: nil rng source", ErrBadTest)
	}
	sim, err := machine.NewSim(t.Prog, model)
	if err != nil {
		return 0, fmt.Errorf("litmus: %w", err)
	}
	hits := 0
	for i := 0; i < runs; i++ {
		o, _, err := sim.RunRandom(src)
		if err != nil {
			return 0, fmt.Errorf("litmus: %w", err)
		}
		ok, err := t.Target.Holds(o)
		if err != nil {
			return 0, err
		}
		if ok {
			hits++
		}
	}
	return float64(hits) / float64(runs), nil
}
