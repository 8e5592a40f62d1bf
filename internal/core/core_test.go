package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"memreliability/internal/analytic"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	valid := DefaultConfig(memmodel.SC(), 2)
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{},
		{Model: memmodel.SC(), Threads: 1, PrefixLen: 4, StoreProb: 0.5, SwapProb: 0.5},
		{Model: memmodel.SC(), Threads: 2, PrefixLen: -1, StoreProb: 0.5, SwapProb: 0.5},
		{Model: memmodel.SC(), Threads: 2, PrefixLen: 4, StoreProb: 1.5, SwapProb: 0.5},
		{Model: memmodel.SC(), Threads: 2, PrefixLen: 4, StoreProb: 0.5, SwapProb: -1},
		{Model: memmodel.SC(), Threads: 2, PrefixLen: 4, StoreProb: math.NaN(), SwapProb: 0.5},
		{Model: memmodel.SC(), Threads: 2, PrefixLen: 4, StoreProb: 0.5, SwapProb: math.NaN()},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestSampleSegmentsSC(t *testing.T) {
	// Under SC every segment is exactly 2.
	src := rng.New(1)
	cfg := DefaultConfig(memmodel.SC(), 4)
	for trial := 0; trial < 50; trial++ {
		segs, err := cfg.SampleSegments(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 4 {
			t.Fatalf("got %d segments", len(segs))
		}
		for _, s := range segs {
			if s != 2 {
				t.Fatalf("SC segment = %d, want 2", s)
			}
		}
	}
}

func TestSampleSegmentsBounds(t *testing.T) {
	src := rng.New(2)
	for _, model := range memmodel.All() {
		cfg := DefaultConfig(model, 3)
		for trial := 0; trial < 100; trial++ {
			segs, err := cfg.SampleSegments(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range segs {
				if s < 2 || s > cfg.PrefixLen+2 {
					t.Fatalf("%s: segment %d out of [2, m+2]", model.Name(), s)
				}
			}
		}
	}
}

func TestExactTwoThreadPrAMatchesTheorem62(t *testing.T) {
	// The central result: n=2 probabilities per model.
	cases := []struct {
		model memmodel.Model
		check func(t *testing.T, iv analytic.Interval)
	}{
		{memmodel.SC(), func(t *testing.T, iv analytic.Interval) {
			if math.Abs(iv.Midpoint()-analytic.Theorem62SC) > 1e-6 {
				t.Errorf("SC Pr[A] = %+v, want 1/6", iv)
			}
		}},
		{memmodel.WO(), func(t *testing.T, iv analytic.Interval) {
			if math.Abs(iv.Midpoint()-analytic.Theorem62WO) > 1e-4 {
				t.Errorf("WO Pr[A] = %+v, want 7/54", iv)
			}
		}},
		{memmodel.TSO(), func(t *testing.T, iv analytic.Interval) {
			paper := analytic.Theorem62TSO()
			// The DP value is (near-)exact, so it must land inside the
			// paper's rigorous bounds.
			if iv.Midpoint() < paper.Lo-1e-4 || iv.Midpoint() > paper.Hi+1e-4 {
				t.Errorf("TSO Pr[A] = %+v outside paper bounds %+v", iv, paper)
			}
		}},
	}
	for _, tc := range cases {
		cfg := Config{Model: tc.model, Threads: 2, PrefixLen: 16, StoreProb: 0.5, SwapProb: 0.5}
		iv, err := ExactTwoThreadPrA(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.model.Name(), err)
		}
		tc.check(t, iv)
	}
}

func TestExactTwoThreadPrAOrdering(t *testing.T) {
	// SC > TSO > WO at n=2 (Theorem 6.2's qualitative content).
	get := func(model memmodel.Model) float64 {
		cfg := Config{Model: model, Threads: 2, PrefixLen: 16, StoreProb: 0.5, SwapProb: 0.5}
		iv, err := ExactTwoThreadPrA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return iv.Midpoint()
	}
	sc, tso, wo := get(memmodel.SC()), get(memmodel.TSO()), get(memmodel.WO())
	if !(sc > tso && tso > wo) {
		t.Errorf("ordering violated: SC %v, TSO %v, WO %v", sc, tso, wo)
	}
	if ratio := sc / wo; math.Abs(ratio-9.0/7.0) > 1e-3 {
		t.Errorf("SC/WO = %v, want 9/7", ratio)
	}
}

func TestExactTwoThreadPrARejectsWrongN(t *testing.T) {
	cfg := Config{Model: memmodel.SC(), Threads: 3, PrefixLen: 8, StoreProb: 0.5, SwapProb: 0.5}
	if _, err := ExactTwoThreadPrA(cfg); !errors.Is(err, ErrBadConfig) {
		t.Error("n=3 accepted")
	}
}

func TestEndToEndMCAgreesWithExact(t *testing.T) {
	// Full joined-process simulation must reproduce the DP-exact n=2
	// values within Monte Carlo error, for every model.
	for _, model := range memmodel.All() {
		exactCfg := Config{Model: model, Threads: 2, PrefixLen: 14, StoreProb: 0.5, SwapProb: 0.5}
		iv, err := ExactTwoThreadPrA(exactCfg)
		if err != nil {
			t.Fatal(err)
		}
		simCfg := Config{Model: model, Threads: 2, PrefixLen: 32, StoreProb: 0.5, SwapProb: 0.5}
		res := estimateNoBug(t, simCfg, mc.Config{Trials: 150000, Seed: 7})
		lo, hi, err := res.WilsonCI(0.999)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Hi < lo || iv.Lo > hi {
			t.Errorf("%s: exact %+v outside MC CI [%v, %v]", model.Name(), iv, lo, hi)
		}
	}
}

func TestManifestTrialDeterministicSeed(t *testing.T) {
	cfg := DefaultConfig(memmodel.TSO(), 2)
	a, err := cfg.ManifestTrial(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.ManifestTrial(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed gave different outcomes")
	}
}

func TestProductTrialSCIsConstant(t *testing.T) {
	src := rng.New(3)
	cfg := DefaultConfig(memmodel.SC(), 3)
	want := math.Pow(2, -6) // Π_{i=1}^{2} 2^-2i = 2^-6
	for trial := 0; trial < 20; trial++ {
		v, err := cfg.ProductTrial(src)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-want) > 1e-15 {
			t.Fatalf("SC product = %v, want %v", v, want)
		}
	}
}

func TestHybridPrAMatchesAnalyticSC(t *testing.T) {
	// For SC the hybrid estimator has zero variance, so it must equal the
	// analytic SCPrA for every n.
	ctx := context.Background()
	for _, n := range []int{2, 3, 4, 6} {
		cfg := DefaultConfig(memmodel.SC(), n)
		res, err := HybridPrA(ctx, cfg, mc.AdaptiveConfig{MaxTrials: 200, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.TrialsUsed != 200 || res.Rounds != 0 || res.StopReason != "" {
			t.Errorf("n=%d fixed run: %d trials in %d rounds (%q), want 200 in 0 rounds with no stop reason",
				n, res.TrialsUsed, res.Rounds, res.StopReason)
		}
		// The SC product is constant, so a precision target holds after
		// the first round.
		adaptive, err := HybridPrA(ctx, cfg, mc.AdaptiveConfig{MaxTrials: 20000, Seed: 5,
			TargetRelErr: 1e-3, Confidence: 0.99})
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.PrA != res.PrA || adaptive.Rounds != 1 || adaptive.StopReason != mc.StopConverged ||
			adaptive.TrialsUsed != 8192 {
			t.Errorf("n=%d run to a target: %v after %d trials in %d rounds (%q), want %v after 8192 in 1 round (converged)",
				n, adaptive.PrA, adaptive.TrialsUsed, adaptive.Rounds, adaptive.StopReason, res.PrA)
		}
		want, err := analytic.SCPrA(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.PrA-want) > 1e-12*want {
			t.Errorf("n=%d: hybrid %v, analytic %v", n, res.PrA, want)
		}
		wantLog, err := analytic.SCLogPrA(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.LogPrA-wantLog) > 1e-9 {
			t.Errorf("n=%d: hybrid log %v, analytic %v", n, res.LogPrA, wantLog)
		}
	}
}

func TestHybridPrAMatchesExactTwoThread(t *testing.T) {
	// n=2 hybrid (MC expectation) must agree with the DP-exact value.
	ctx := context.Background()
	for _, model := range memmodel.All() {
		cfg := Config{Model: model, Threads: 2, PrefixLen: 32, StoreProb: 0.5, SwapProb: 0.5}
		res, err := HybridPrA(ctx, cfg, mc.AdaptiveConfig{MaxTrials: 300000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		exactCfg := cfg
		exactCfg.PrefixLen = 14
		iv, err := ExactTwoThreadPrA(exactCfg)
		if err != nil {
			t.Fatal(err)
		}
		// Tolerance: MC standard error propagated through the (2/3)·E form
		// plus DP truncation.
		tol := 4*res.StdErr*2.0/3.0*4 + 1e-3
		if res.PrA < iv.Lo-tol || res.PrA > iv.Hi+tol {
			t.Errorf("%s: hybrid %v vs exact %+v (tol %v)", model.Name(), res.PrA, iv, tol)
		}
	}
}
