package sweep

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memreliability/internal/estimator"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
	"memreliability/internal/settle"
)

// smallSpec is the shared fast test grid. m=16 deliberately exercises
// non-dyadic exact-DP accumulation, where a nondeterministic summation
// order (e.g. map iteration) would show up as last-ulp jitter in the
// byte-identity test below.
func smallSpec() Spec {
	spec := DefaultSpec()
	spec.Models = []string{"SC", "TSO"}
	spec.Threads = []int{2, 4}
	spec.PrefixLens = []int{16}
	spec.Estimators = []Kind{Exact, FullMC, Hybrid}
	spec.Trials = 400
	spec.Seed = 7
	return spec
}

func TestNormalizedDefaults(t *testing.T) {
	n := Spec{Models: []string{"SC"}}.Normalized()
	if len(n.Threads) != 1 || n.Threads[0] != 2 {
		t.Errorf("Threads = %v", n.Threads)
	}
	if len(n.PrefixLens) != 1 || n.PrefixLens[0] != 64 {
		t.Errorf("PrefixLens = %v", n.PrefixLens)
	}
	if len(n.Estimators) != 1 || n.Estimators[0] != Hybrid {
		t.Errorf("Estimators = %v", n.Estimators)
	}
	// Scalar fields are never defaulted by Normalized: an explicit zero
	// is a legitimate experiment, and paper defaults come from
	// DefaultSpec instead.
	if n.StoreProb != 0 || n.SwapProb != 0 || n.MaxGamma != 0 {
		t.Errorf("Normalized touched scalar fields: %+v", n)
	}
	d := DefaultSpec()
	if d.StoreProb != 0.5 || d.SwapProb != 0.5 || d.MaxGamma != 8 {
		t.Errorf("DefaultSpec = %+v", d)
	}
}

// TestSpecIdentity: a spec's identity is its normalized form without the
// worker budget, shared by specs that differ only in Workers, in model
// casing or in spelling a grid default out, and it is what Run echoes.
func TestSpecIdentity(t *testing.T) {
	spec := smallSpec()
	spec.Workers = 3
	variant := smallSpec()
	variant.Models = []string{"sc", "tso"}
	variant.Workers = 1
	want := spec.Normalized()
	want.Workers = 0
	for name, s := range map[string]Spec{"spec": spec, "variant": variant, "identity": spec.Identity()} {
		if got := s.Identity(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s identity = %+v, want %+v", name, got, want)
		}
	}
	defaults := Spec{Models: []string{"SC"}, Trials: 10}
	spelled := Spec{Models: []string{"SC"}, Threads: []int{2}, PrefixLens: []int{64}, Estimators: []Kind{Hybrid}, Trials: 10}
	if !reflect.DeepEqual(defaults.Identity(), spelled.Identity()) {
		t.Error("spelling grid defaults out changed the identity")
	}
	art, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art.Spec, want) {
		t.Errorf("artifact echo %+v, want the spec's identity %+v", art.Spec, want)
	}
}

func TestZeroProbabilitiesHonored(t *testing.T) {
	// s = 0 means swaps never succeed: every model degenerates to SC and
	// the exact n=2 Pr[A] is the SC value 1/6. A spec layer that treated
	// zero as "unset" would silently compute the s=1/2 value instead
	// (≈0.134 for TSO).
	spec := DefaultSpec()
	spec.Models = []string{"TSO"}
	spec.Threads = []int{2}
	spec.PrefixLens = []int{12}
	spec.Estimators = []Kind{Exact}
	spec.SwapProb = 0
	art, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := art.Cells[0].Estimate; math.Abs(got-1.0/6.0) > 1e-9 {
		t.Errorf("TSO s=0 exact = %v, want 1/6", got)
	}
	if art.Spec.SwapProb != 0 {
		t.Errorf("artifact echo rewrote swap_prob to %v", art.Spec.SwapProb)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},
		{Models: []string{"RC"}},
		{Models: []string{"SC"}, Threads: []int{1}},
		{Models: []string{"SC"}, Threads: []int{2, estimator.ThreadLimit + 1}},
		{Models: []string{"SC"}, Threads: []int{math.MaxInt}},
		{Models: []string{"SC"}, PrefixLens: []int{0}},
		{Models: []string{"SC"}, PrefixLens: []int{estimator.PrefixLimit + 1}},
		{Models: []string{"SC"}, PrefixLens: []int{math.MaxInt}},
		{Models: []string{"SC"}, Estimators: []Kind{Exact}, PrefixLens: []int{estimator.PrefixLimit + 1}},
		{Models: []string{"SC"}, Estimators: []Kind{WindowDist}, PrefixLens: []int{estimator.PrefixLimit + 1}},
		{Models: []string{"SC"}, Estimators: []Kind{"bogus"}},
		{Models: []string{"SC"}, Estimators: []Kind{FullMC}, Trials: 0},
		{Models: []string{"SC"}, Estimators: []Kind{FullMC}, Trials: mc.TrialLimit + 1},
		{Models: []string{"SC"}, Trials: math.MaxInt},
		{Models: []string{"SC"}, Trials: 10, Precision: &estimator.Precision{TargetRelErr: 0.1, MaxTrials: math.MaxInt}},
		{Models: []string{"SC"}, Workers: -1},
		{Models: []string{"SC"}, StoreProb: 1.5},
		{Models: []string{"SC"}, SwapProb: -0.5},
		{Models: []string{"SC"}, MaxGamma: -1},
	}
	for i, s := range bad {
		if err := s.Normalized().Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if _, err := Run(context.Background(), Spec{}, Options{}); !errors.Is(err, ErrBadSpec) {
		t.Error("Run accepted empty spec")
	}
	atLimit := Spec{Models: []string{"SC"}, Threads: []int{estimator.ThreadLimit}, PrefixLens: []int{estimator.PrefixLimit}, Trials: 1}
	if err := atLimit.Normalized().Validate(); err != nil {
		t.Errorf("threads and prefix at their limits rejected: %v", err)
	}
	// Trials and threads bound only the cells that run Monte Carlo
	// trials: the exact kinds skip every n but 2. The prefix limit binds
	// every cell.
	exactOnly := Spec{Models: []string{"SC"}, Estimators: []Kind{Exact, WindowDist}, Trials: math.MaxInt,
		Threads: []int{math.MaxInt}, PrefixLens: []int{estimator.PrefixLimit}}
	if err := exactOnly.Normalized().Validate(); err != nil {
		t.Errorf("deterministic grid with huge trials and threads rejected: %v", err)
	}
}

func TestExpandGridOrderAndWindowDistCollapse(t *testing.T) {
	s := Spec{
		Models:     []string{"SC", "WO"},
		Threads:    []int{2, 4},
		PrefixLens: []int{8},
		Estimators: []Kind{Hybrid, WindowDist},
		Trials:     10,
	}.Normalized()
	cells := s.Expand()
	// Per model: (n=2, hybrid), (windowdist, once), (n=4, hybrid).
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
	}
	wd := 0
	for _, c := range cells {
		if c.Estimator == WindowDist {
			wd++
			if c.Threads != 0 {
				t.Errorf("windowdist cell has threads=%d", c.Threads)
			}
		}
	}
	if wd != 2 {
		t.Errorf("%d windowdist cells, want one per model", wd)
	}
	if cells[0].Model != "SC" || cells[len(cells)-1].Model != "WO" {
		t.Errorf("model order wrong: %+v", cells)
	}
}

func TestRunArtifactShape(t *testing.T) {
	art, err := Run(context.Background(), smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if art.SchemaVersion != ArtifactVersion {
		t.Errorf("schema version %d", art.SchemaVersion)
	}
	if art.Spec.Workers != 0 {
		t.Error("worker budget leaked into the artifact echo")
	}
	// 2 models × 2 threads × 3 estimators.
	if len(art.Cells) != 12 {
		t.Fatalf("%d cells, want 12", len(art.Cells))
	}
	for i, c := range art.Cells {
		if c.Index != i {
			t.Errorf("cell %d out of order (index %d)", i, c.Index)
		}
		switch {
		case c.Estimator == Exact && c.Threads == 4:
			if !c.Skipped {
				t.Errorf("exact n=4 cell not skipped: %+v", c)
			}
		case c.Skipped:
			t.Errorf("cell %d skipped unexpectedly: %+v", i, c)
		case c.Estimate < 0 || c.Estimate >= 1:
			// Full MC may legitimately estimate 0 deep in the
			// e^{-Θ(n²)} regime; exact and hybrid never do.
			t.Errorf("cell %d estimate %v out of [0,1)", i, c.Estimate)
		case c.Estimator != FullMC && c.Estimate == 0:
			t.Errorf("cell %d (%s) estimate is 0", i, c.Estimator)
		}
	}
	// SC n=2 exact must be the paper's 1/6.
	sc := art.Cells[0]
	if sc.Estimator != Exact || math.Abs(sc.Estimate-1.0/6.0) > 1e-3 {
		t.Errorf("SC exact cell = %+v", sc)
	}
}

func TestRunByteIdenticalAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	var bufs [3]bytes.Buffer
	for i, workers := range []int{1, 3, 7} {
		spec := smallSpec()
		spec.Workers = workers
		art, err := Run(ctx, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := art.EncodeJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) || !bytes.Equal(bufs[0].Bytes(), bufs[2].Bytes()) {
		t.Error("artifact bytes differ across worker budgets")
	}
}

func TestRunSinkStreamsEveryCell(t *testing.T) {
	var calls atomic.Int64
	spec := smallSpec()
	spec.Workers = 4
	_, err := Run(context.Background(), spec, Options{Sink: func(CellResult) {
		calls.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 12 {
		t.Errorf("sink saw %d cells, want 12", calls.Load())
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := DefaultSpec()
	spec.Models = []string{"SC", "TSO", "PSO", "WO"}
	spec.Threads = []int{2, 4, 8}
	spec.Estimators = []Kind{Hybrid}
	spec.Trials = 200000
	spec.Seed = 1
	if _, err := Run(ctx, spec, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v", err)
	}
}

func TestWindowDistMatchesSettleDP(t *testing.T) {
	spec := DefaultSpec()
	spec.Models = []string{"WO"}
	spec.PrefixLens = []int{12}
	spec.Estimators = []Kind{WindowDist}
	spec.MaxGamma = 6
	spec.Seed = 3
	art, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Cells) != 1 {
		t.Fatalf("%d cells", len(art.Cells))
	}
	c := art.Cells[0]
	if len(c.Dist) != 7 {
		t.Fatalf("dist len %d", len(c.Dist))
	}
	pmf, err := settle.ExactWindowDist(memmodel.WO(), 12, 0.5, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	for gamma := 0; gamma <= 6; gamma++ {
		if math.Abs(c.Dist[gamma]-pmf.At(gamma)) > 1e-15 {
			t.Errorf("γ=%d: %v vs DP %v", gamma, c.Dist[gamma], pmf.At(gamma))
		}
	}
}

func TestExactPrefixClampNoted(t *testing.T) {
	spec := DefaultSpec()
	spec.Models = []string{"TSO"}
	spec.Threads = []int{2}
	spec.PrefixLens = []int{64}
	spec.Estimators = []Kind{Exact}
	spec.Seed = 1
	art, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := art.Cells[0]
	if c.EffectiveM != 64 || c.Note != "" {
		t.Errorf("exact cell at m = 64: effective_m %d with note %q, want 64 and none", c.EffectiveM, c.Note)
	}
	// The m = 64 value sits inside the paper's TSO bracket for the
	// m → ∞ limit (Theorem 6.2).
	if c.Estimate < 0.1315 || c.Estimate > 0.1369 {
		t.Errorf("TSO exact estimate %v outside [0.1315, 0.1369]", c.Estimate)
	}
}

func TestArtifactJSONRoundTrip(t *testing.T) {
	art, err := Run(context.Background(), smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(art.Cells) {
		t.Fatalf("round trip lost cells: %d vs %d", len(back.Cells), len(art.Cells))
	}
	for i := range art.Cells {
		if !reflect.DeepEqual(back.Cells[i], art.Cells[i]) {
			t.Errorf("cell %d changed in round trip: %+v vs %+v", i, back.Cells[i], art.Cells[i])
		}
	}
	if _, err := DecodeArtifact(strings.NewReader(`{"schema_version": 99}`)); !errors.Is(err, ErrBadArtifact) {
		t.Error("wrong schema version accepted")
	}
	if _, err := DecodeArtifact(strings.NewReader(`not json`)); !errors.Is(err, ErrBadArtifact) {
		t.Error("garbage accepted")
	}
}

func TestArtifactTable(t *testing.T) {
	spec := smallSpec()
	spec.Estimators = append(spec.Estimators, WindowDist)
	art, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := art.Table()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"exact DP (n=2)", "full Monte Carlo", "hybrid (Thm 6.1)",
		"window distribution", "skipped: exact DP requires n = 2", "ln Pr[A]"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTimingOptionPopulatesElapsed(t *testing.T) {
	spec := DefaultSpec()
	spec.Models = []string{"SC"}
	spec.Estimators = []Kind{Exact}
	spec.PrefixLens = []int{12}
	spec.Seed = 1
	art, err := Run(context.Background(), spec, Options{Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	if art.Cells[0].ElapsedMS <= 0 {
		t.Error("timing requested but elapsed not recorded")
	}
}

func TestThreadScalingGapVanishes(t *testing.T) {
	ctx := context.Background()
	models := []memmodel.Model{memmodel.SC(), memmodel.WO()}
	rows, err := ThreadScaling(ctx, models, []int{2, 4, 8}, 32,
		mc.Config{Trials: 20000, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Rows come n-outer: SC n=2, WO n=2, SC n=4, ...
	ratioAt := func(n int) float64 {
		for _, r := range rows {
			if r.Model == "WO" && r.Threads == n {
				return r.RatioToSC
			}
		}
		t.Fatalf("missing WO row for n=%d", n)
		return 0
	}
	// Theorem 6.3: the WO/SC rate ratio tends to 1 as n grows.
	if math.Abs(ratioAt(8)-1) > math.Abs(ratioAt(2)-1) {
		t.Errorf("gap did not shrink: n=2 ratio %v, n=8 ratio %v", ratioAt(2), ratioAt(8))
	}
	if math.Abs(ratioAt(8)-1) > 0.25 {
		t.Errorf("n=8 ratio %v too far from 1", ratioAt(8))
	}
	// SC's ratio to itself is identically 1 up to float noise: the SC
	// product expectation has zero variance, so the hybrid estimate is
	// exact regardless of seed.
	for _, r := range rows {
		if r.Model == "SC" && math.Abs(r.RatioToSC-1) > 1e-9 {
			t.Errorf("SC ratio at n=%d = %v", r.Threads, r.RatioToSC)
		}
	}
}

func TestThreadScalingValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := ThreadScaling(ctx, nil, []int{2}, 8, mc.Config{Trials: 10, Seed: 1}); !errors.Is(err, ErrBadSpec) {
		t.Error("empty models accepted")
	}
	if _, err := ThreadScaling(ctx, []memmodel.Model{memmodel.SC()}, nil, 8, mc.Config{Trials: 10, Seed: 1}); !errors.Is(err, ErrBadSpec) {
		t.Error("empty ns accepted")
	}
}

// TestRunByteIdenticalAcrossPoolBudgets runs grids whose cells span
// several chunks, fixed and adaptive, narrower than the larger budgets
// so cells borrow free slots: budgets 1, 2 and 4 must give the same
// bytes.
func TestRunByteIdenticalAcrossPoolBudgets(t *testing.T) {
	spec := DefaultSpec()
	spec.Models = []string{"TSO"}
	spec.Threads = []int{3}
	spec.PrefixLens = []int{16}
	spec.Estimators = []Kind{FullMC, Hybrid, CompiledMC}
	spec.Trials = 40000
	spec.Seed = 21
	adaptive := spec
	adaptive.Precision = &estimator.Precision{TargetRelErr: 0.02}
	for _, base := range []Spec{spec, adaptive} {
		var want []byte
		for _, budget := range []int{1, 2, 4} {
			s := base
			s.Workers = budget
			art, err := Run(context.Background(), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := art.EncodeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("precision %v: artifact at budget %d differs from budget 1's", base.Precision != nil, budget)
			}
		}
	}
}

// probeKind is a test-only estimator kind whose Monte Carlo releases
// its chunks only once probeSlots of them run at once.
const (
	probeKind  Kind = "pool-probe"
	probeSlots      = 4
)

// probeEstimator runs probeSlots chunks, each of which waits at its
// first batch call until all probeSlots have arrived — so the cell
// completes only if it gets probeSlots slots at once. A minute without
// them fails the cell instead of hanging the test.
type probeEstimator struct{}

func (probeEstimator) Kind() Kind          { return probeKind }
func (probeEstimator) DisplayName() string { return "pool probe" }
func (probeEstimator) NeedsTrials() bool   { return true }

func (probeEstimator) Estimate(ctx context.Context, q estimator.Query, seed uint64, ex estimator.Exec) (estimator.Result, error) {
	var mu sync.Mutex
	seen := map[*rng.Source]bool{}
	all := make(chan struct{})
	batch := func(src *rng.Source, out []uint64, n int) error {
		mu.Lock()
		first := !seen[src]
		if seen[src] = true; first && len(seen) == probeSlots {
			close(all)
		}
		mu.Unlock()
		if first {
			select {
			case <-all:
			case <-time.After(time.Minute):
				return errors.New("chunks never ran side by side")
			}
		}
		for i := range out[:mc.BitWords(n)] {
			out[i] = 0
		}
		return nil
	}
	cfg := mc.Config{Trials: probeSlots * 8192, Workers: ex.Workers, Helpers: ex.Helpers, Seed: seed}
	if _, err := mc.EstimateProbabilityBits(ctx, cfg, batch); err != nil {
		return estimator.Result{}, err
	}
	return estimator.Result{Kind: probeKind, EffectiveM: q.PrefixLen}, nil
}

func init() { estimator.Register(probeEstimator{}) }

// TestSingleCellGridGetsWholeBudget: a one-cell grid at budget 4 runs
// its cell's chunks on all four slots at once — one held by the cell
// goroutine, three borrowed.
func TestSingleCellGridGetsWholeBudget(t *testing.T) {
	spec := DefaultSpec()
	spec.Models = []string{"SC"}
	spec.Estimators = []Kind{probeKind}
	spec.Trials = 1
	spec.Workers = probeSlots
	if _, err := Run(context.Background(), spec, Options{}); err != nil {
		t.Fatal(err)
	}
}
