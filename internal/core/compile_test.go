package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// These are the compiler engine's promotion gate: the compiled Program
// must be bit-identical to the reference oracle (ReferenceNoBugBits) —
// same bitsets, same final generator state — across the full parameter
// lattice, including the draw-free p, s ∈ {0, 1} edges, batch sizes
// that end mid-word, and the harness's sub-batch call pattern.

// latticeCase is one point of the cross-engine test grid.
type latticeCase struct {
	cfg  Config
	name string
}

// compileLattice sweeps models × thread counts × prefix lengths ×
// edge-and-interior probabilities. Prefixes of 63, 64 and 65 run at the
// interior points only, the ones that take the fused trial: it packs the
// prefix into one word, so m = 64 is its widest case (a zero-bit shift
// before the window scans) and m = 65 falls back to the composed path.
func compileLattice(t *testing.T) []latticeCase {
	t.Helper()
	type probs struct{ store, swap float64 }
	cases := []probs{{0.5, 0.5}, {0.3, 0.7}, {0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {1, 1}, {0, 0}}
	interior := cases[:2]
	var out []latticeCase
	for _, model := range kernelModels() {
		for _, n := range []int{2, 3, 4} {
			for _, m := range []int{0, 1, 7, 16, 63, 64, 65} {
				points := cases
				if m > 16 {
					points = interior
				}
				for _, pr := range points {
					cfg := Config{Model: model, Threads: n, PrefixLen: m,
						StoreProb: pr.store, SwapProb: pr.swap}
					out = append(out, latticeCase{cfg: cfg, name: model.Name()})
				}
			}
		}
	}
	return out
}

// compileFor builds the compiled program for a config, failing the test
// on any compile error (every Config must be compilable).
func compileFor(t *testing.T, cfg Config) *Program {
	t.Helper()
	ir, err := cfg.BuildIR()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Compile()
	if err != nil {
		t.Fatalf("%s n=%d m=%d p=%v s=%v: %v", cfg.Model.Name(), cfg.Threads,
			cfg.PrefixLen, cfg.StoreProb, cfg.SwapProb, err)
	}
	return prog
}

// referenceFor builds the reference oracle's batch for a config.
func referenceFor(t *testing.T, cfg Config) mc.BatchTrialBits {
	t.Helper()
	ref, err := cfg.ReferenceNoBugBits()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestCompiledBitsMatchReference is the main cross-engine equality
// property: compiled FillBits against the reference oracle on shared
// substreams over the whole lattice — identical bitsets (including
// zeroed unused bits of a dirty partial final word) and identical final
// generator states.
func TestCompiledBitsMatchReference(t *testing.T) {
	for _, lc := range compileLattice(t) {
		cfg := lc.cfg
		prog := compileFor(t, cfg)
		ref := referenceFor(t, cfg)
		const trials = 131 // ends mid-word: 2 full words + 3 bits
		got := make([]uint64, mc.BitWords(trials))
		want := make([]uint64, mc.BitWords(trials))
		for w := range got {
			got[w] = ^uint64(0) // contract: unused bits come back zero
		}
		compiledSrc, refSrc := rng.New(11), rng.New(11)
		if err := prog.FillBits(compiledSrc, got, trials); err != nil {
			t.Fatal(err)
		}
		if err := ref(refSrc, want, trials); err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if got[w] != want[w] {
				t.Fatalf("%s n=%d m=%d p=%v s=%v word %d: compiled %064b != reference %064b",
					lc.name, cfg.Threads, cfg.PrefixLen, cfg.StoreProb, cfg.SwapProb,
					w, got[w], want[w])
			}
		}
		if compiledSrc.State() != refSrc.State() {
			t.Fatalf("%s n=%d m=%d p=%v s=%v: engines consumed different draws",
				lc.name, cfg.Threads, cfg.PrefixLen, cfg.StoreProb, cfg.SwapProb)
		}
	}
}

// TestCompiledSubBatchResync replays the mc harness's actual call
// pattern — repeated batch calls on one source with sub-chunk sizes,
// as runProbChunk's cancellation sub-batches and the adaptive engine's
// round barriers produce — and checks the compiled engine stays
// bit-identical and draw-synchronized with the reference after every
// call, not just at the end. This is what the drawCursor's
// snapshot-and-resync exists for.
func TestCompiledSubBatchResync(t *testing.T) {
	cfg := Config{Model: memmodel.TSO(), Threads: 2, PrefixLen: 24, StoreProb: 0.5, SwapProb: 0.5}
	prog := compileFor(t, cfg)
	ref := referenceFor(t, cfg)
	compiledSrc, refSrc := rng.New(43), rng.New(43)
	for call, trials := range []int{1024, 1024, 137, 64, 1, 1024} {
		got := make([]uint64, mc.BitWords(trials))
		want := make([]uint64, mc.BitWords(trials))
		if err := prog.FillBits(compiledSrc, got, trials); err != nil {
			t.Fatal(err)
		}
		if err := ref(refSrc, want, trials); err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if got[w] != want[w] {
				t.Fatalf("call %d (n=%d) word %d: compiled != reference", call, trials, w)
			}
		}
		if compiledSrc.State() != refSrc.State() {
			t.Fatalf("call %d (n=%d): sources desynchronized", call, trials)
		}
	}
}

// TestCompiledEstimateMatchesReference runs the full fixed-trials
// estimation pipeline on the plan-cached compiled engine and on the
// reference oracle: identical Results, at one worker and several (worker
// invariance already holds per engine; this pins the engines to each
// other).
func TestCompiledEstimateMatchesReference(t *testing.T) {
	cfg := DefaultConfig(memmodel.PSO(), 3)
	cfg.PrefixLen = 16
	compiled, err := cfg.CompiledNoBugBits()
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceFor(t, cfg)
	for _, workers := range []int{1, 3} {
		mcCfg := mc.Config{Trials: 4000, Workers: workers, Seed: 7}
		got, err := mc.EstimateProbabilityBits(context.Background(), mcCfg, compiled)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mc.EstimateProbabilityBits(context.Background(), mcCfg, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got.Proportion.Successes() != want.Proportion.Successes() || got.Estimate() != want.Estimate() {
			t.Fatalf("workers=%d: compiled %d/%v != reference %d/%v", workers,
				got.Proportion.Successes(), got.Estimate(), want.Proportion.Successes(), want.Estimate())
		}
	}
}

// TestCompiledAdaptiveMatchesReference pins the adaptive route across
// engines: same rounds, same trials consumed, same stop reason, same
// estimate — the round barriers land on identical chunk boundaries
// because the engines are draw-for-draw identical.
func TestCompiledAdaptiveMatchesReference(t *testing.T) {
	cfg := DefaultConfig(memmodel.TSO(), 2)
	cfg.PrefixLen = 16
	acfg := mc.AdaptiveConfig{
		MaxTrials:       1 << 16,
		Workers:         2,
		Seed:            19,
		TargetHalfWidth: 0.01,
		Confidence:      0.95,
	}
	compiled, err := cfg.CompiledNoBugBits()
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.EstimateAdaptiveBits(context.Background(), acfg, compiled)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mc.EstimateAdaptiveBits(context.Background(), acfg, referenceFor(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got.TrialsUsed() != want.TrialsUsed() || got.Rounds != want.Rounds ||
		got.StopReason != want.StopReason || got.Estimate() != want.Estimate() {
		t.Fatalf("adaptive diverged: compiled trials=%d rounds=%d stop=%s est=%v, "+
			"reference trials=%d rounds=%d stop=%s est=%v",
			got.TrialsUsed(), got.Rounds, got.StopReason, got.Estimate(),
			want.TrialsUsed(), want.Rounds, want.StopReason, want.Estimate())
	}
}

// TestCompiledZeroAllocs asserts the compiled batch entry point
// allocates nothing in steady state (after the pool is warm) — the
// guarantee the compiled-kernel perf scenario gates.
func TestCompiledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig(memmodel.TSO(), 2)
	cfg.PrefixLen = 24
	prog := compileFor(t, cfg)
	src := rng.New(31)
	const trials = 700 // ends mid-word
	words := make([]uint64, mc.BitWords(trials))
	if err := prog.FillBits(src, words, trials); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := prog.FillBits(src, words, trials); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("FillBits allocates %.1f per call, want 0", avg)
	}
}

// TestCompiledConcurrentBatchCalls runs many concurrent batch calls on
// one shared Program (the harness's worker pattern) and checks each
// stream against the reference oracle — the pooled scratch states must
// not alias.
func TestCompiledConcurrentBatchCalls(t *testing.T) {
	cfg := DefaultConfig(memmodel.WO(), 3)
	cfg.PrefixLen = 12
	prog := compileFor(t, cfg)
	ref := referenceFor(t, cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			const trials = 500
			got := make([]uint64, mc.BitWords(trials))
			want := make([]uint64, mc.BitWords(trials))
			compiledSrc, refSrc := rng.New(seed), rng.New(seed)
			for rep := 0; rep < 5; rep++ {
				if err := prog.FillBits(compiledSrc, got, trials); err != nil {
					t.Error(err)
					return
				}
				if err := ref(refSrc, want, trials); err != nil {
					t.Error(err)
					return
				}
				for w := range got {
					if got[w] != want[w] {
						t.Errorf("seed %d rep %d word %d: compiled != reference", seed, rep, w)
						return
					}
				}
			}
		}(uint64(100 + g))
	}
	wg.Wait()
}

// TestCompileRejectsNonUniformIR pins Compile's own guard: an IR with
// per-pair swap thresholds (which Config.BuildIR never emits) must
// report ErrNotCompilable rather than compile something wrong.
func TestCompileRejectsNonUniformIR(t *testing.T) {
	cfg := DefaultConfig(memmodel.WO(), 2)
	ir, err := cfg.BuildIR()
	if err != nil {
		t.Fatal(err)
	}
	ir.SwapThr[0][1] = drawThreshold(0.25) // break uniformity
	if _, err := ir.Compile(); !errors.Is(err, ErrNotCompilable) {
		t.Fatalf("want ErrNotCompilable, got %v", err)
	}
}
