package perf

import (
	"context"
	"testing"

	"memreliability/internal/analytic"
	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/obs"
	"memreliability/internal/rng"
	"memreliability/internal/settle"
	"memreliability/internal/stats"
)

// chunkTrials mirrors the mc harness's chunk size: the per-chunk
// scenarios below measure exactly one steady-state chunk of work.
const chunkTrials = 8192

// Scenario is one entry of the fixed benchmark suite.
type Scenario struct {
	// ID is the stable identifier recorded in the JSON artifact. IDs are
	// part of the baseline contract: removing or renaming one fails the
	// regression gate until the baseline is refreshed deliberately.
	ID string
	// Description says what the scenario exercises.
	Description string
	// Trials is the Monte Carlo trial count one operation consumes (0
	// for deterministic scenarios); it converts ns/op into trials/sec.
	Trials int
	// ZeroAlloc marks the scenario for the strict allocation gate: any
	// allocs/op growth over the baseline fails, regardless of time
	// tolerances. Only scenarios whose allocs/op is exactly stable
	// (independent of the benchmark iteration count) belong here.
	ZeroAlloc bool
	// Bench is the measured body, a standard testing benchmark.
	Bench func(b *testing.B)
}

// sink defeats dead-code elimination of benchmark bodies.
var sink int

// query builds the suite's estimator queries from one normal form.
func query(kind estimator.Kind, model string, threads, prefixLen, trials int, seed uint64) estimator.Query {
	q := estimator.DefaultQuery()
	q.Kind = kind
	q.Model = model
	q.Threads = threads
	q.PrefixLen = prefixLen
	q.Trials = trials
	q.Seed = seed
	return q
}

// benchEstimate measures the registry dispatch of a fixed query on a
// single Monte Carlo worker, so ns/op reflects per-trial cost rather
// than the measuring machine's core count — records stay comparable
// across runner classes (results are worker-count invariant anyway).
func benchEstimate(q estimator.Query) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := estimator.EstimateExec(context.Background(), q, estimator.Exec{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			sink += res.TrialsUsed
		}
	}
}

// coinBits is the native-bitset trivial batch: one generator step per
// word, masked to the mc.BatchTrialBits partial-word contract. With it,
// the scenario measures the bit-parallel harness floor — 64 trials per
// RNG draw, zero per-trial work.
func coinBits(src *rng.Source, out []uint64, n int) error {
	words := out[:mc.BitWords(n)]
	for w := range words {
		words[w] = src.Uint64()
	}
	if rem := n & (mc.WordBits - 1); rem != 0 {
		words[len(words)-1] &= 1<<uint(rem) - 1
	}
	return nil
}

// Suite returns the fixed benchmark suite, in canonical order. The
// scenario set and parameters are versioned by SchemaVersion: changing
// either requires a deliberate baseline refresh.
func Suite() []Scenario {
	return []Scenario{
		{
			ID:          "exact-dp/tso-n2-m14",
			Description: "one uncached exact n=2 evaluation (Theorem 6.2): the window DP, SegmentMGF and TwoThreadPrA, TSO, m=14",
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pmf, err := settle.ExactWindowDist(memmodel.TSO(), 14, 0.5, 0.5, 14)
					if err != nil {
						b.Fatal(err)
					}
					mgf, err := analytic.SegmentMGF(pmf)
					if err != nil {
						b.Fatal(err)
					}
					if iv := analytic.TwoThreadPrA(mgf); iv.Lo > iv.Hi {
						b.Fatal("empty Pr[A] interval")
					}
				}
			},
		},
		{
			ID:          "windowdist/tso-m14",
			Description: "one uncached exact window distribution Pr[B_γ] (settle.ExactWindowDist), TSO, m=14, γ ≤ 8",
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pmf, err := settle.ExactWindowDist(memmodel.TSO(), 14, 0.5, 0.5, 8)
					if err != nil {
						b.Fatal(err)
					}
					sink += pmf.Len()
				}
			},
		},
		{
			ID:          "fixed-mc/tso-n2-m24-16k",
			Description: "fixed-trials full Monte Carlo through the registry (batched hot path), TSO, n=2, m=24, 16384 trials",
			Trials:      16384,
			Bench:       benchEstimate(query(estimator.FullMC, "TSO", 2, 24, 16384, 1)),
		},
		{
			ID:          "fixed-mc-compiled/tso-n2-m24-16k",
			Description: "fixed-trials full Monte Carlo through the registry on the compiled kernel engine, TSO, n=2, m=24, 16384 trials",
			Trials:      16384,
			Bench:       benchEstimate(query(estimator.CompiledMC, "TSO", 2, 24, 16384, 1)),
		},
		{
			ID:          "adaptive-mc/tso-n2-m24-hw0.01",
			Description: "adaptive-precision full Monte Carlo to a ±0.01 Wilson half-width, TSO, n=2, m=24, budget 65536",
			Bench: func() func(b *testing.B) {
				q := query(estimator.FullMC, "TSO", 2, 24, 65536, 1)
				q.Precision = &estimator.Precision{TargetHalfWidth: 0.01}
				return benchEstimate(q)
			}(),
		},
		{
			ID:          "hybrid/wo-n6-m32-8k",
			Description: "Theorem 6.1 hybrid estimate through the registry (batched product expectation), WO, n=6, m=32, 8192 trials",
			Trials:      8192,
			Bench:       benchEstimate(query(estimator.Hybrid, "WO", 6, 32, 8192, 1)),
		},
		{
			ID:          "bits-kernel/chunk-8k",
			Description: "steady-state bitset chunk: fill one 8192-trial word buffer and popcount it (the bit-parallel fixed-MC inner loop)",
			Trials:      chunkTrials,
			ZeroAlloc:   true,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				src := rng.New(1)
				words := make([]uint64, mc.BitWords(chunkTrials))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := coinBits(src, words, chunkTrials); err != nil {
						b.Fatal(err)
					}
					sink += mc.OnesCount(words)
				}
			},
		},
		{
			ID:          "core-nobug-bits/chunk-8k",
			Description: "steady-state joined-process chunk: one prebuilt table-driven kernel fills one 8192-trial word buffer, TSO, n=2, m=24",
			Trials:      chunkTrials,
			ZeroAlloc:   true,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				cfg := core.DefaultConfig(memmodel.TSO(), 2)
				cfg.PrefixLen = 24
				k, err := cfg.NewKernel()
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(1)
				words := make([]uint64, mc.BitWords(chunkTrials))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := k.FillBits(src, words, chunkTrials); err != nil {
						b.Fatal(err)
					}
					sink += mc.OnesCount(words)
				}
			},
		},
		{
			ID:          "compiled-kernel/chunk-8k",
			Description: "steady-state compiled-engine chunk: one cached compiled Program fills one 8192-trial word buffer, TSO, n=2, m=24",
			Trials:      chunkTrials,
			ZeroAlloc:   true,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				cfg := core.DefaultConfig(memmodel.TSO(), 2)
				cfg.PrefixLen = 24
				prog, err := core.DefaultPlanCache().Lookup(cfg)
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(1)
				words := make([]uint64, mc.BitWords(chunkTrials))
				// Warm the Program's scratch pool so the measured loop is
				// pure steady state, as in the harness's chunk loop.
				if err := prog.FillBits(src, words, chunkTrials); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := prog.FillBits(src, words, chunkTrials); err != nil {
						b.Fatal(err)
					}
					sink += mc.OnesCount(words)
				}
			},
		},
		{
			ID:          "rng-bulkfill/8k",
			Description: "bulk xoshiro fill: one FillUint64s call over an 8192-word buffer (the compiled engine's draw source)",
			ZeroAlloc:   true,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				src := rng.New(1)
				buf := make([]uint64, chunkTrials)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.FillUint64s(buf)
					sink += int(buf[len(buf)-1] & 1)
				}
			},
		},
		{
			ID:          "mc-instrumented/chunk-8k",
			Description: "steady-state bitset chunk plus the chunk-path metric updates (counter inc + trials add), proving instrumentation stays allocation-free",
			Trials:      chunkTrials,
			ZeroAlloc:   true,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				reg := obs.NewRegistry()
				chunks := reg.Counter("bench_chunks_total", "bench")
				trials := reg.Counter("bench_trials_total", "bench")
				src := rng.New(1)
				words := make([]uint64, mc.BitWords(chunkTrials))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := coinBits(src, words, chunkTrials); err != nil {
						b.Fatal(err)
					}
					sink += mc.OnesCount(words)
					// The exact per-chunk observability cost the mc harness
					// pays: one counter increment and one counter add.
					chunks.Inc()
					trials.Add(chunkTrials)
				}
			},
		},
		{
			ID:          "obs-metrics/observe-8k",
			Description: "8192 metric updates (counter inc, gauge set, histogram observe) on pre-resolved handles",
			ZeroAlloc:   true,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				reg := obs.NewRegistry()
				c := reg.Counter("bench_events_total", "bench")
				g := reg.Gauge("bench_depth", "bench")
				h := reg.Histogram("bench_seconds", "bench", obs.LatencyBuckets())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < chunkTrials; j++ {
						c.Inc()
						g.Set(float64(j))
						h.Observe(float64(j) * 1e-6)
					}
				}
				sink += int(c.Value())
			},
		},
		{
			ID:          "mc-mean-batch/chunk-8k",
			Description: "steady-state mean batch chunk: fill one 8192-sample buffer and fold it into a Summary",
			Trials:      chunkTrials,
			ZeroAlloc:   true,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				src := rng.New(1)
				out := make([]float64, chunkTrials)
				var sum stats.Summary
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range out {
						out[j] = src.Float64()
					}
					for _, v := range out {
						sum.Add(v)
					}
				}
				sink += sum.N()
			},
		},
	}
}

// minZeroAllocOps is the fewest ops a ZeroAlloc scenario's allocations
// are measured over, whatever -benchtime says.
const minZeroAllocOps = 16

// RunScenario measures one scenario with the standard benchmark driver
// (respecting -test.benchtime when testing.Init has registered it).
//
// A ZeroAlloc scenario is measured until it has run at least
// minZeroAllocOps ops, adding up further driver runs when -benchtime
// asks for fewer (1x), so its allocs/op means the same at any budget: a
// single allocation made by some other goroutine during the timed ops
// stays below one per op, as it does over the default budget's hundreds
// of ops, while a body that allocates on every op still counts one.
func RunScenario(s Scenario) ScenarioResult {
	r := testing.Benchmark(s.Bench)
	for s.ZeroAlloc && r.N > 0 && r.N < minZeroAllocOps {
		more := testing.Benchmark(s.Bench)
		if more.N == 0 {
			break // the body failed; report what was measured
		}
		r.N += more.N
		r.T += more.T
		r.MemAllocs += more.MemAllocs
		r.MemBytes += more.MemBytes
	}
	res := ScenarioResult{
		ID:          s.ID,
		Ops:         r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		ZeroAlloc:   s.ZeroAlloc,
	}
	if s.Trials > 0 && res.NsPerOp > 0 {
		res.TrialsPerSec = float64(s.Trials) * 1e9 / res.NsPerOp
	}
	return res
}

// RunSuite measures every suite scenario in order and returns the
// stamped record. progress, when non-nil, receives each result as it
// completes.
func RunSuite(revision string, progress func(ScenarioResult)) *Record {
	return RunScenarios(revision, Suite(), progress)
}

// RunScenarios measures the given scenarios in order and returns the
// stamped record — RunSuite over a caller-selected subset (e.g.
// membench -only).
func RunScenarios(revision string, scenarios []Scenario, progress func(ScenarioResult)) *Record {
	rec := NewRecord(revision)
	for _, s := range scenarios {
		res := RunScenario(s)
		rec.Scenarios = append(rec.Scenarios, res)
		if progress != nil {
			progress(res)
		}
	}
	return rec
}
