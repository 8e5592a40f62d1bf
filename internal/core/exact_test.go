package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
)

func TestExactSmallPrAMatchesTwoThreadDP(t *testing.T) {
	// Two fully independent exact routes must agree at n=2: the marginal
	// DP (ExactTwoThreadPrA) and the full joint enumeration.
	for _, model := range memmodel.All() {
		cfg := Config{Model: model, Threads: 2, PrefixLen: 10, StoreProb: 0.5, SwapProb: 0.5}
		enum, err := ExactSmallPrA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := ExactTwoThreadPrA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if enum < iv.Lo-1e-9 || enum > iv.Hi+1e-9 {
			t.Errorf("%s: enumeration %v outside DP interval %+v", model.Name(), enum, iv)
		}
	}
}

func TestExactSmallPrAMatchesTheorem61(t *testing.T) {
	// Full numerical verification of Theorem 6.1 on dependent windows:
	// direct enumeration of the disjointness event vs the c(n)·n!·E[Π...]
	// formula, at n=3 where the permutation combinatorics are non-trivial.
	for _, model := range []memmodel.Model{memmodel.SC(), memmodel.TSO(), memmodel.WO()} {
		cfg := Config{Model: model, Threads: 3, PrefixLen: 8, StoreProb: 0.5, SwapProb: 0.5}
		direct, err := ExactSmallPrA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		via61, err := ExactSmallPrAViaTheorem61(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct-via61) > 1e-9*math.Max(1, direct) {
			t.Errorf("%s: direct %v vs Theorem 6.1 %v", model.Name(), direct, via61)
		}
	}
}

func TestExactSmallPrASCKnownValue(t *testing.T) {
	// SC n=3: every Γ=2, so Pr[A] = Pr[A(2,2,2)] exactly; compare with the
	// shift closed form through the analytic route used elsewhere.
	cfg := Config{Model: memmodel.SC(), Threads: 3, PrefixLen: 6, StoreProb: 0.5, SwapProb: 0.5}
	enum, err := ExactSmallPrA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	via61, err := ExactSmallPrAViaTheorem61(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(enum-via61) > 1e-12 {
		t.Errorf("SC n=3: %v vs %v", enum, via61)
	}
	// And n=2 must still be 1/6 (short prefix is fine: SC windows do not
	// depend on the prefix at all).
	cfg2 := Config{Model: memmodel.SC(), Threads: 2, PrefixLen: 4, StoreProb: 0.5, SwapProb: 0.5}
	enum2, err := ExactSmallPrA(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(enum2-1.0/6.0) > 1e-12 {
		t.Errorf("SC n=2 enumeration = %v, want 1/6", enum2)
	}
}

func TestExactSmallPrAMatchesMonteCarloN3(t *testing.T) {
	// The enumeration must sit inside a tight MC interval for n=3 — this
	// cross-validates the entire joined sampler beyond n=2.
	for _, model := range []memmodel.Model{memmodel.TSO(), memmodel.WO()} {
		exactCfg := Config{Model: model, Threads: 3, PrefixLen: 10, StoreProb: 0.5, SwapProb: 0.5}
		exact, err := ExactSmallPrA(exactCfg)
		if err != nil {
			t.Fatal(err)
		}
		simCfg := Config{Model: model, Threads: 3, PrefixLen: 32, StoreProb: 0.5, SwapProb: 0.5}
		res := estimateNoBug(t, simCfg, mc.Config{Trials: 200000, Seed: 33})
		lo, hi, err := res.WilsonCI(0.999)
		if err != nil {
			t.Fatal(err)
		}
		if exact < lo-5e-4 || exact > hi+5e-4 {
			t.Errorf("%s n=3: exact %v outside MC CI [%v, %v]", model.Name(), exact, lo, hi)
		}
	}
}

func TestExactProductExpectationMatchesMC(t *testing.T) {
	// The MC product estimator must agree with the exact enumeration,
	// including TSO's cross-thread dependence.
	ctx := context.Background()
	cfg := Config{Model: memmodel.TSO(), Threads: 3, PrefixLen: 10, StoreProb: 0.5, SwapProb: 0.5}
	exact, err := ExactProductExpectation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcCfg := cfg
	mcCfg.PrefixLen = 32
	res, err := HybridPrA(ctx, mcCfg, mc.AdaptiveConfig{MaxTrials: 300000, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.ProductExpectation - exact); diff > 5*res.StdErr+1e-4 {
		t.Errorf("product expectation: MC %v vs exact %v (diff %v, stderr %v)",
			res.ProductExpectation, exact, diff, res.StdErr)
	}
}

func TestExactSmallPrAModelOrderingN3(t *testing.T) {
	// The Theorem 6.2 qualitative ordering persists at n=3 (with PSO above
	// TSO, per the E9 derived result).
	get := func(model memmodel.Model) float64 {
		cfg := Config{Model: model, Threads: 3, PrefixLen: 9, StoreProb: 0.5, SwapProb: 0.5}
		v, err := ExactSmallPrA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sc, tso, pso, wo := get(memmodel.SC()), get(memmodel.TSO()), get(memmodel.PSO()), get(memmodel.WO())
	if !(sc > pso && pso > tso && tso > wo) {
		t.Errorf("n=3 ordering: SC %v, PSO %v, TSO %v, WO %v", sc, pso, tso, wo)
	}
}

func TestExactSmallPrALimits(t *testing.T) {
	big := Config{Model: memmodel.SC(), Threads: 2, PrefixLen: 20, StoreProb: 0.5, SwapProb: 0.5}
	if _, err := ExactSmallPrA(big); !errors.Is(err, ErrBadConfig) {
		t.Error("huge m accepted")
	}
	wide := Config{Model: memmodel.SC(), Threads: 6, PrefixLen: 4, StoreProb: 0.5, SwapProb: 0.5}
	if _, err := ExactSmallPrA(wide); !errors.Is(err, ErrBadConfig) {
		t.Error("n=6 accepted")
	}
	if _, err := ExactProductExpectation(wide); !errors.Is(err, ErrBadConfig) {
		t.Error("ExactProductExpectation n=6 accepted")
	}
}
