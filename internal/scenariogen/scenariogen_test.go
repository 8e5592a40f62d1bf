package scenariogen

import (
	"fmt"
	"reflect"
	"testing"

	"memreliability/internal/litmus"
	"memreliability/internal/memmodel"
)

// TestQueryDeterministic: same seed → identical query sequence;
// different seeds diverge.
func TestQueryDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 200; i++ {
		qa, qb := a.Query(QueryParams{}), b.Query(QueryParams{})
		if !reflect.DeepEqual(qa, qb) {
			t.Fatalf("draw %d: same seed diverged:\n%+v\n%+v", i, qa, qb)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 50; i++ {
		if reflect.DeepEqual(New(42).Query(QueryParams{}), c.Query(QueryParams{})) {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical sequences")
	}
}

// TestQueryAlwaysValid: every generated query passes the estimator's
// canonical validation, across defaults and tight custom bounds.
func TestQueryAlwaysValid(t *testing.T) {
	params := []QueryParams{
		{},
		{MaxThreads: 2, MaxPrefix: 1, MaxTrials: 64},
		{Models: []string{"RMO", "LRO"}, MaxPrefix: 3},
	}
	for pi, p := range params {
		g := New(uint64(pi) + 7)
		for i := 0; i < 1000; i++ {
			q := g.Query(p)
			if err := q.Normalized().Validate(); err != nil {
				t.Fatalf("params %d draw %d: invalid query %+v: %v", pi, i, q, err)
			}
		}
	}
}

// TestQueryHitsLatticeEdges: the degenerate probability corners (0 and
// 1) must actually appear — they are the point of the lattice.
func TestQueryHitsLatticeEdges(t *testing.T) {
	g := New(11)
	seen := map[float64]bool{}
	models := map[string]bool{}
	for i := 0; i < 2000; i++ {
		q := g.Query(QueryParams{})
		seen[q.StoreProb] = true
		seen[q.SwapProb] = true
		models[q.Model] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("edge probabilities not drawn: saw %v", seen)
	}
	// Every registered model — including the RMO/LRO variants — shows up.
	for _, m := range memmodel.Registered() {
		if !models[m.Name()] {
			t.Errorf("model %s never drawn in 2000 queries", m.Name())
		}
	}
}

// TestModelCoversLattice: random relax-matrix models are deterministic
// per seed and cover all 16 subsets of the Table 1 pairs.
func TestModelCoversLattice(t *testing.T) {
	a, b := New(3), New(3)
	rows := map[[4]bool]bool{}
	for i := 0; i < 300; i++ {
		ma, mb := a.Model(), b.Model()
		if ma.Name() != mb.Name() || ma.Table1Row() != mb.Table1Row() {
			t.Fatalf("draw %d: same seed diverged: %s vs %s", i, ma.Name(), mb.Name())
		}
		rows[ma.Table1Row()] = true
	}
	if len(rows) != 16 {
		t.Errorf("300 draws covered %d/16 relax matrices", len(rows))
	}
}

// TestLitmusTestValidAndRoundTrips: generated litmus tests are valid
// machine programs and survive the text DSL byte-identically.
func TestLitmusTestValidAndRoundTrips(t *testing.T) {
	g := New(99)
	for i := 0; i < 500; i++ {
		tc := g.LitmusTest(fmt.Sprintf("GEN%d", i), LitmusParams{})
		if err := tc.Prog.Validate(); err != nil {
			t.Fatalf("draw %d: invalid program: %v\n%+v", i, err, tc)
		}
		data, err := litmus.Print(tc)
		if err != nil {
			t.Fatalf("draw %d: print: %v\n%+v", i, err, tc)
		}
		parsed, err := litmus.Parse("gen.litmus", data)
		if err != nil {
			t.Fatalf("draw %d: parse: %v\n%s", i, err, data)
		}
		if len(parsed) != 1 || !reflect.DeepEqual(parsed[0], tc) {
			t.Fatalf("draw %d: round-trip mismatch:\ngot  %#v\nwant %#v\n%s", i, parsed[0], tc, data)
		}
	}
}

func TestLitmusTestDeterministic(t *testing.T) {
	a, b := New(5), New(5)
	for i := 0; i < 100; i++ {
		ta := a.LitmusTest("X", LitmusParams{})
		tb := b.LitmusTest("X", LitmusParams{})
		if !reflect.DeepEqual(ta, tb) {
			t.Fatalf("draw %d: same seed diverged", i)
		}
	}
}
