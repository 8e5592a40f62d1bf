package core

import (
	"fmt"
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/rng"
)

// engineBatch is the number of trials one benchmark op evaluates: the mc
// harness's sub-batch between cancellation checks, so every op pays the
// per-call costs (scratch checkout, cursor resync) the harness pays.
const engineBatch = 1024

// BenchmarkEngines times each trial engine per registered model, in ns
// per trial: the table-driven kernel's bits (NoBugBits) and the compiled
// engine's bits (CompiledNoBugBits) at n = 3, m = 24, and the Theorem
// 6.1 product batch (ProductBatch) at n = 8 with m = 64, the widest
// prefix the compiled engine's settling stream forms take, and m = 96,
// where every model but SC (whose no-settle form takes any m) falls back
// to the table kernel's loops. It calls only the Config entry points, so
// the same file measures any revision of the engines behind them.
func BenchmarkEngines(b *testing.B) {
	for _, model := range kernelModels() {
		bitsCfg := Config{Model: model, Threads: 3, PrefixLen: 24, StoreProb: 0.5, SwapProb: 0.5}
		b.Run("bits-table/"+model.Name(), func(b *testing.B) {
			benchBits(b, bitsCfg, Config.NoBugBits)
		})
		b.Run("bits-compiled/"+model.Name(), func(b *testing.B) {
			benchBits(b, bitsCfg, Config.CompiledNoBugBits)
		})
		for _, m := range []int{64, 96} {
			cfg := Config{Model: model, Threads: 8, PrefixLen: m, StoreProb: 0.5, SwapProb: 0.5}
			b.Run(fmt.Sprintf("products-m%d/%s", m, model.Name()), func(b *testing.B) { benchProducts(b, cfg) })
		}
	}
}

// benchBits times one bitset batch constructor on engineBatch-trial
// calls against one source.
func benchBits(b *testing.B, cfg Config, build func(Config) (mc.BatchTrialBits, error)) {
	batch, err := build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	words := make([]uint64, mc.BitWords(engineBatch))
	if err := batch(src, words, engineBatch); err != nil { // warm pooled scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := batch(src, words, engineBatch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*engineBatch), "ns/trial")
}

// benchProducts times the product batch on engineBatch-sample calls.
func benchProducts(b *testing.B, cfg Config) {
	batch, err := cfg.ProductBatch()
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	out := make([]float64, engineBatch)
	if err := batch(src, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := batch(src, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*engineBatch), "ns/trial")
}
