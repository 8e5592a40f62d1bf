package perf

import (
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	rec := NewRecord("test")
	rec.Scenarios = []ScenarioResult{
		{ID: "a", NsPerOp: 123.5, AllocsPerOp: 4, BytesPerOp: 256, Ops: 10},
		{ID: "b", NsPerOp: 7, ZeroAlloc: true, Ops: 1000, TrialsPerSec: 1e6},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteFile(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || got.Revision != "test" {
		t.Errorf("stamp lost: %+v", got)
	}
	if len(got.Scenarios) != 2 || got.Scenarios[0] != rec.Scenarios[0] || got.Scenarios[1] != rec.Scenarios[1] {
		t.Errorf("scenarios differ after round trip: %+v", got.Scenarios)
	}
	if _, ok := got.Scenario("b"); !ok {
		t.Error("Scenario lookup failed")
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	_, err := Read(strings.NewReader(`{"schema_version": 999, "scenarios": []}`))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
	_, err = Read(strings.NewReader(`not json`))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
}

func TestSuiteIsWellFormed(t *testing.T) {
	suite := Suite()
	if len(suite) == 0 {
		t.Fatal("empty suite")
	}
	ids := make(map[string]bool)
	zeroAlloc := 0
	for _, s := range suite {
		if s.ID == "" || s.Bench == nil || s.Description == "" {
			t.Errorf("malformed scenario %+v", s.ID)
		}
		if ids[s.ID] {
			t.Errorf("duplicate scenario id %q", s.ID)
		}
		ids[s.ID] = true
		if s.ZeroAlloc {
			zeroAlloc++
		}
	}
	if zeroAlloc == 0 {
		t.Error("suite has no zero-alloc scenarios; the strict allocation gate is vacuous")
	}
}

func TestRunScenarioMeasures(t *testing.T) {
	work := 0
	res := RunScenario(Scenario{
		ID:     "synthetic/noop",
		Trials: 100,
		Bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work++
			}
		},
	})
	if res.Ops <= 0 || res.NsPerOp < 0 {
		t.Errorf("implausible measurement: %+v", res)
	}
	if res.TrialsPerSec <= 0 {
		t.Errorf("trials/sec not derived: %+v", res)
	}
}

// TestRunScenarioZeroAllocOps pins the zero-alloc measurement at
// -benchtime 1x: a ZeroAlloc scenario runs at least minZeroAllocOps ops,
// and one that allocates on every op still measures one allocation per
// op, so the gate keeps failing it.
func TestRunScenarioZeroAllocOps(t *testing.T) {
	testing.Init()
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(old)
	var keep []*int
	res := RunScenario(Scenario{
		ID:        "synthetic/alloc-per-op",
		ZeroAlloc: true,
		Bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keep = append(keep[:0], new(int))
			}
		},
	})
	if res.Ops < minZeroAllocOps {
		t.Errorf("zero-alloc scenario measured over %d ops at 1x, want ≥ %d", res.Ops, minZeroAllocOps)
	}
	if res.AllocsPerOp < 1 {
		t.Errorf("a body allocating on every op measured %v allocs/op, want ≥ 1", res.AllocsPerOp)
	}
	if v := ZeroAllocViolations(&Record{Scenarios: []ScenarioResult{res}}); len(v) != 1 {
		t.Errorf("zero-alloc gate missed a scenario allocating on every op: %+v", res)
	}
}

// TestSuiteChunkScenarioZeroAllocs runs the suite's strict-gate scenario
// once and asserts it measures as allocation-free, so the committed
// baseline's zero-alloc anchors are genuine.
func TestSuiteChunkScenarioZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark run in -short mode")
	}
	if raceEnabled {
		// sync.Pool deliberately drops puts under the race detector, so
		// pooled-scratch scenarios measure spurious allocations; the
		// race-free gate runs in CI via bench-bits and bench-compare.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, s := range Suite() {
		if !s.ZeroAlloc {
			continue
		}
		res := RunScenario(s)
		if res.AllocsPerOp != 0 {
			t.Errorf("%s: %v allocs/op, want 0", s.ID, res.AllocsPerOp)
		}
	}
}

func TestCompare(t *testing.T) {
	base := NewRecord("base")
	base.Scenarios = []ScenarioResult{
		{ID: "steady", NsPerOp: 100, AllocsPerOp: 10},
		{ID: "hot", NsPerOp: 100, AllocsPerOp: 0, ZeroAlloc: true},
		{ID: "gone", NsPerOp: 50},
	}
	fresh := NewRecord("fresh")
	fresh.GOMAXPROCS = base.GOMAXPROCS + 3 // environment drift → note, never a failure
	fresh.Scenarios = []ScenarioResult{
		{ID: "steady", NsPerOp: 180, AllocsPerOp: 25}, // 1.8x, allocs untracked: ok
		{ID: "hot", NsPerOp: 90, AllocsPerOp: 1, ZeroAlloc: true},
		{ID: "added", NsPerOp: 5},
	}
	rep, err := Compare(base, fresh, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	status := make(map[string]Status)
	for _, d := range rep.Deltas {
		status[d.ID] = d.Status
	}
	if status["steady"] != StatusOK {
		t.Errorf("steady = %v, want ok (1.8x is inside the 2x tolerance)", status["steady"])
	}
	if status["hot"] != StatusRegressed {
		t.Errorf("hot = %v, want regressed (allocs grew on a zero-alloc scenario)", status["hot"])
	}
	if status["gone"] != StatusRegressed {
		t.Errorf("gone = %v, want regressed (missing from new record)", status["gone"])
	}
	if status["added"] != StatusNew {
		t.Errorf("added = %v, want new", status["added"])
	}
	if !rep.Regressed() || len(rep.Regressions()) != 2 {
		t.Errorf("regressions = %+v, want hot+gone", rep.Regressions())
	}
	if len(rep.Notes) != 1 || !strings.Contains(rep.Notes[0], "GOMAXPROCS differs") {
		t.Errorf("notes = %v, want one GOMAXPROCS-drift note", rep.Notes)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAIL: 2 of 4 scenarios regressed") {
		t.Errorf("report text:\n%s", buf.String())
	}
}

func TestCompareNsRegression(t *testing.T) {
	base := NewRecord("")
	base.Scenarios = []ScenarioResult{{ID: "s", NsPerOp: 100}}
	fresh := NewRecord("")
	fresh.Scenarios = []ScenarioResult{{ID: "s", NsPerOp: 201}}
	rep, err := Compare(base, fresh, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Regressed() {
		t.Error("2.01x slowdown passed the 2x gate")
	}
	// Identical records always pass.
	rep, err = Compare(base, base, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressed() {
		t.Errorf("self-comparison regressed: %+v", rep.Regressions())
	}
}

// TestCompareRequireZeroAlloc checks the day-one gate: a zero-alloc
// scenario that allocates fails under RequireZeroAlloc even when it is
// absent from the baseline (StatusNew) or its baseline already
// allocated (no growth).
func TestCompareRequireZeroAlloc(t *testing.T) {
	base := NewRecord("base")
	base.Scenarios = []ScenarioResult{
		{ID: "leaky", NsPerOp: 100, AllocsPerOp: 3, ZeroAlloc: true},
	}
	fresh := NewRecord("fresh")
	fresh.Scenarios = []ScenarioResult{
		{ID: "leaky", NsPerOp: 100, AllocsPerOp: 3, ZeroAlloc: true}, // no growth, but not zero
		{ID: "fresh-hot", NsPerOp: 10, AllocsPerOp: 1, ZeroAlloc: true},
		{ID: "fresh-ok", NsPerOp: 10, AllocsPerOp: 0, ZeroAlloc: true},
	}
	rep, err := Compare(base, fresh, Tolerances{RequireZeroAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	status := make(map[string]Status)
	for _, d := range rep.Deltas {
		status[d.ID] = d.Status
	}
	if status["leaky"] != StatusRegressed {
		t.Errorf("leaky = %v, want regressed (allocates on a zero-alloc scenario)", status["leaky"])
	}
	if status["fresh-hot"] != StatusRegressed {
		t.Errorf("fresh-hot = %v, want regressed (new zero-alloc scenario allocates)", status["fresh-hot"])
	}
	if status["fresh-ok"] != StatusNew {
		t.Errorf("fresh-ok = %v, want new", status["fresh-ok"])
	}

	// Without the flag, the same records pass as before: no growth, and
	// new scenarios are never gated.
	rep, err = Compare(base, fresh, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressed() {
		t.Errorf("regressed without RequireZeroAlloc: %+v", rep.Regressions())
	}

	if bad := ZeroAllocViolations(fresh); len(bad) != 2 ||
		bad[0].ID != "leaky" || bad[1].ID != "fresh-hot" {
		t.Errorf("ZeroAllocViolations = %+v, want leaky+fresh-hot", bad)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := NewRecord("")
	fresh := NewRecord("")
	fresh.SchemaVersion = SchemaVersion + 1
	if _, err := Compare(base, fresh, DefaultTolerances()); !errors.Is(err, ErrIncomparable) {
		t.Errorf("err = %v, want ErrIncomparable", err)
	}
}
