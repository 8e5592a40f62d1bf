package memreliability

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"memreliability/internal/estimator"
	"memreliability/internal/rng"
)

func TestFacadeModels(t *testing.T) {
	if len(AllModels()) != 4 {
		t.Fatal("AllModels wrong")
	}
	names := []string{"SC", "TSO", "PSO", "WO"}
	for i, m := range AllModels() {
		if m.Name() != names[i] {
			t.Errorf("model %d = %s, want %s", i, m.Name(), names[i])
		}
	}
	m, err := ModelByName("tso")
	if err != nil || m.Name() != "TSO" {
		t.Errorf("ModelByName = %v, %v", m.Name(), err)
	}
}

func TestFacadeWindowDistribution(t *testing.T) {
	dist, err := WindowDistribution(WO(), 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 7 {
		t.Fatalf("len = %d", len(dist))
	}
	if math.Abs(dist[0]-2.0/3.0) > 1e-3 {
		t.Errorf("WO Pr[B_0] = %v", dist[0])
	}
}

func TestFacadeWindowDistributionClampsOversizedPrefix(t *testing.T) {
	// m = 64 is answered at m = 64, as a direct windowdist query reports,
	// and a prefix over estimator.PrefixLimit is refused.
	got, err := WindowDistribution(TSO(), 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := DefaultQuery()
	q.Kind = SweepWindowDist
	q.Model = "TSO"
	q.MaxGamma = 5
	direct, err := Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if direct.EffectiveM != 64 || direct.Note != "" {
		t.Errorf("m = 64 answered at effective_m %d with note %q", direct.EffectiveM, direct.Note)
	}
	for gamma := range got {
		if got[gamma] != direct.Dist[gamma] {
			t.Errorf("Pr[B_%d] = %v, want %v", gamma, got[gamma], direct.Dist[gamma])
		}
	}
	if _, err := WindowDistribution(TSO(), estimator.PrefixLimit+1, 5); !errors.Is(err, estimator.ErrBadQuery) {
		t.Errorf("prefix length %d: err = %v, want ErrBadQuery", estimator.PrefixLimit+1, err)
	}
}

func TestFacadeServer(t *testing.T) {
	srv, err := NewServer(ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, err := json.Marshal(EstimateRequest{
		Model: "SC", Threads: 2, PrefixLen: 12, Estimator: SweepExact,
		Trials: 1, Seed: 1, StoreProb: 0.5, SwapProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Result.Estimate-1.0/6.0) > 1e-3 {
		t.Errorf("SC exact estimate = %v", out.Result.Estimate)
	}
}

func TestFacadeTwoThreadProbabilities(t *testing.T) {
	sc, err := TwoThreadNoBugProbability(SC())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sc.Midpoint()-1.0/6.0) > 1e-6 {
		t.Errorf("SC = %+v", sc)
	}
	wo, err := TwoThreadNoBugProbability(WO())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wo.Midpoint()-7.0/54.0) > 1e-4 {
		t.Errorf("WO = %+v", wo)
	}
}

func TestFacadeNoBugProbability(t *testing.T) {
	ctx := context.Background()
	est, lo, hi, err := NoBugProbability(ctx, TSO(), 2, 60000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo > est || est > hi {
		t.Errorf("estimate %v outside its own CI [%v, %v]", est, lo, hi)
	}
	// Paper: TSO n=2 in (0.1315, 0.1369); allow MC slack.
	if est < 0.12 || est > 0.15 {
		t.Errorf("TSO estimate %v implausible", est)
	}
}

func TestFacadeHybridAndScaling(t *testing.T) {
	ctx := context.Background()
	res, err := HybridNoBugProbability(ctx, WO(), 4, 20000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogPrA >= 0 {
		t.Errorf("LogPrA = %v", res.LogPrA)
	}
	rows, err := ThreadScaling(ctx, []Model{SC(), WO()}, []int{2, 4}, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFacadeRunSweep(t *testing.T) {
	ctx := context.Background()
	spec := DefaultSweepSpec()
	spec.Models = []string{"SC", "WO"}
	spec.Threads = []int{2}
	spec.PrefixLens = []int{12}
	spec.Estimators = []SweepKind{SweepExact, SweepHybrid}
	spec.Trials = 2000
	spec.Seed = 11
	art, err := RunSweep(ctx, spec, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Cells) != 4 {
		t.Fatalf("cells = %d", len(art.Cells))
	}
	if math.Abs(art.Cells[0].Estimate-1.0/6.0) > 1e-3 {
		t.Errorf("SC exact = %v", art.Cells[0].Estimate)
	}
	if _, err := RunSweep(ctx, SweepSpec{}, SweepOptions{}); err == nil {
		t.Error("empty spec accepted")
	}
}

// TestFacadeShimsMatchDirectEstimate pins the satellite contract of the
// Query redesign: every legacy facade helper is a pure shim — its output
// is field-for-field identical to a direct Estimate of the equivalent
// Query.
func TestFacadeShimsMatchDirectEstimate(t *testing.T) {
	ctx := context.Background()

	t.Run("NoBugProbability", func(t *testing.T) {
		est, lo, hi, err := NoBugProbability(ctx, TSO(), 2, 5000, 17)
		if err != nil {
			t.Fatal(err)
		}
		q := DefaultQuery()
		q.Kind = SweepFullMC
		q.Model = "TSO"
		q.Trials = 5000
		q.Seed = 17
		direct, err := Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if est != direct.Estimate || lo != direct.Lo || hi != direct.Hi {
			t.Errorf("shim (%v, %v, %v) != direct (%v, %v, %v)",
				est, lo, hi, direct.Estimate, direct.Lo, direct.Hi)
		}
	})

	t.Run("HybridNoBugProbability", func(t *testing.T) {
		res, err := HybridNoBugProbability(ctx, WO(), 4, 4000, 5)
		if err != nil {
			t.Fatal(err)
		}
		q := DefaultQuery()
		q.Kind = SweepHybrid
		q.Model = "WO"
		q.Threads = 4
		q.Trials = 4000
		q.Seed = 5
		direct, err := Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.PrA != direct.Estimate || res.LogPrA != direct.LogEstimate ||
			res.StdErr != direct.StdErr || res.ProductExpectation != direct.ProductExpectation ||
			res.TrialsUsed != 4000 || res.TrialsUsed != direct.TrialsUsed {
			t.Errorf("shim %+v != direct %+v", res, direct)
		}
	})

	t.Run("TwoThreadNoBugProbability", func(t *testing.T) {
		iv, err := TwoThreadNoBugProbability(PSO())
		if err != nil {
			t.Fatal(err)
		}
		q := DefaultQuery()
		q.Kind = SweepExact
		q.Model = "PSO"
		direct, err := Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo != direct.Lo || iv.Hi != direct.Hi {
			t.Errorf("shim [%v, %v] != direct [%v, %v]", iv.Lo, iv.Hi, direct.Lo, direct.Hi)
		}
	})

	t.Run("WindowDistribution", func(t *testing.T) {
		dist, err := WindowDistribution(WO(), 12, 6)
		if err != nil {
			t.Fatal(err)
		}
		q := DefaultQuery()
		q.Kind = SweepWindowDist
		q.Model = "WO"
		q.PrefixLen = 12
		q.MaxGamma = 6
		direct, err := Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(dist) != len(direct.Dist) {
			t.Fatalf("shim has %d entries, direct %d", len(dist), len(direct.Dist))
		}
		for i := range dist {
			if dist[i] != direct.Dist[i] {
				t.Errorf("dist[%d] = %v, want %v", i, dist[i], direct.Dist[i])
			}
		}
	})
}

// TestFacadeQueryConfidence covers the exposed confidence level: a
// narrower level shrinks the Wilson interval around the same point
// estimate.
func TestFacadeQueryConfidence(t *testing.T) {
	ctx := context.Background()
	q := DefaultQuery()
	q.Kind = SweepFullMC
	q.Model = "TSO"
	q.Trials = 5000
	q.Seed = 17
	wide, err := Estimate(ctx, q) // Confidence = DefaultConfidence (0.99)
	if err != nil {
		t.Fatal(err)
	}
	q.Confidence = 0.5
	narrow, err := Estimate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Estimate != narrow.Estimate {
		t.Errorf("point estimate depends on confidence: %v vs %v", wide.Estimate, narrow.Estimate)
	}
	if narrow.Hi-narrow.Lo >= wide.Hi-wide.Lo {
		t.Errorf("50%% interval [%v, %v] not narrower than 99%% [%v, %v]",
			narrow.Lo, narrow.Hi, wide.Lo, wide.Hi)
	}
	if wide.Confidence != DefaultConfidence || narrow.Confidence != 0.5 {
		t.Errorf("confidence echoes %v, %v", wide.Confidence, narrow.Confidence)
	}
}

// TestFacadeEstimateBatch exercises the batch API through the facade.
func TestFacadeEstimateBatch(t *testing.T) {
	var queries []Query
	for _, model := range []string{"SC", "TSO"} {
		q := DefaultQuery()
		q.Kind = SweepExact
		q.Model = model
		q.PrefixLen = 12
		queries = append(queries, q)
	}
	done := 0
	results, err := EstimateBatch(context.Background(), queries, BatchOptions{
		Progress: func(int, QueryResult) { done++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || done != 2 {
		t.Fatalf("results %d, progress %d", len(results), done)
	}
	if math.Abs(results[0].Estimate-1.0/6.0) > 1e-3 {
		t.Errorf("SC exact = %v", results[0].Estimate)
	}
	if len(EstimatorKinds()) < 4 {
		t.Errorf("EstimatorKinds = %v", EstimatorKinds())
	}
}

func TestFacadeLitmus(t *testing.T) {
	if len(LitmusTests()) < 7 {
		t.Error("registry too small")
	}
	results, err := LitmusCheckAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Conforms() {
			t.Errorf("%s under %s does not conform", r.Test, r.Model)
		}
	}
}

// TestFacadeBitsHarness exercises the direct bit-parallel harness entry
// point: a custom BatchTrialBits, word-count helpers included, gives the
// same estimate at any worker budget.
func TestFacadeBitsHarness(t *testing.T) {
	if MCWordBits != 64 || MCBitWords(65) != 2 || MCBitWords(64) != 1 {
		t.Fatalf("word helpers wrong: MCWordBits=%d MCBitWords(65)=%d", MCWordBits, MCBitWords(65))
	}
	bits := func(src *rng.Source, out []uint64, n int) error {
		words := out[:MCBitWords(n)]
		for w := range words {
			words[w] = 0
		}
		for i := 0; i < n; i++ {
			if src.Uint64()%3 == 0 {
				words[i/MCWordBits] |= 1 << uint(i%MCWordBits)
			}
		}
		return nil
	}
	cfg := MCConfig{Trials: 10_000, Seed: 3}
	one, err := EstimateProbabilityBits(context.Background(), cfg, bits)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	four, err := EstimateProbabilityBits(context.Background(), cfg, bits)
	if err != nil {
		t.Fatal(err)
	}
	if one.Proportion.Successes() != four.Proportion.Successes() {
		t.Errorf("workers=1: %d successes, workers=4: %d", one.Proportion.Successes(), four.Proportion.Successes())
	}
	if math.Abs(one.Proportion.Estimate()-1.0/3.0) > 0.02 {
		t.Errorf("estimate %v far from 1/3", one.Proportion.Estimate())
	}
}
