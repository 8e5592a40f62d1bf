// Package memreliability reproduces "The Impact of Memory Models on
// Software Reliability in Multiprocessors" (Jaffe, Effinger-Dean, Ceze,
// Moscibroda, Strauss; PODC 2011): a probabilistic model of how memory
// consistency models affect the likelihood that a canonical concurrency
// bug manifests.
//
// The package is a facade over the implementation packages:
//
//   - memory models as reordering matrices (Table 1) with fence support;
//   - the settling process (§3.1.2) sampling instruction reorderings, plus
//     an exact finite-program dynamic program validating Theorem 4.1;
//   - the shift process (§5) with the exact Theorem 5.1 evaluation;
//   - the joined model (§6) estimating Pr[A], the probability the §2.2
//     atomicity violation does not manifest, by exact computation (n=2),
//     full simulation, and the Theorem 6.1 hybrid that reaches the
//     e^{-Θ(n²)} regime of Theorem 6.3;
//   - an operational multiprocessor simulator (reorder windows and store
//     buffers) with a litmus-test harness and a vector-clock race
//     detector, grounding the abstract model in executable semantics.
//
// Estimation runs through one canonical surface: a Query (the full
// model/threads/prefix/p/s/trials/seed/confidence/kind tuple) dispatched
// via Estimate or EstimateBatch through the internal estimator registry.
// The sweep engine, the HTTP service, the cmd/ tools, and this package's
// legacy helpers (now documented shims) all adapt onto it, so
// validation, clamping, and defaults are defined exactly once.
//
// The Monte Carlo harness underneath is bit-parallel: batched trials
// emit 64 outcomes per uint64 word (BatchTrialBits) and successes are
// counted by popcount. Custom experiments reach the same engine through
// EstimateProbabilityBits.
//
// Types are re-exported as aliases so downstream code needs only this
// package for the common workflows; the cmd/ tools and examples/ show
// complete usage.
package memreliability

import (
	"context"
	"io"

	"memreliability/internal/analytic"
	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/litmus"
	"memreliability/internal/machine"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/obs"
	"memreliability/internal/serve"
	"memreliability/internal/sweep"
)

// Model is a memory consistency model (a Table 1 reordering matrix).
type Model = memmodel.Model

// Interval is a two-sided probability bound.
type Interval = analytic.Interval

// Config configures a joined-model experiment.
type Config = core.Config

// BatchTrialBits is the Monte Carlo harness's batched boolean trial
// interface: one call evaluates n consecutive trials on the chunk's RNG
// substream and packs the outcomes 64 per uint64 word, LSB-first —
// trial i lands in bit i%64 of out[i/64]. When n is not a multiple of
// 64, the unused high bits of the final word must be written as zero
// (the harness popcounts whole words). Config.NoBugBits builds one for
// the joined process; custom experiments implement it directly for the
// bit-parallel hot path (see examples/bitstrial) and run it with
// EstimateProbabilityBits.
type BatchTrialBits = mc.BatchTrialBits

// BatchMean is the batched form of a real-valued sampler, used by the
// Theorem 6.1 hybrid route's product expectation (Config.ProductBatch,
// which runs on the compiled trial engine). Real-valued samples have no
// bitset form.
type BatchMean = mc.BatchMean

// MCWordBits is the number of trials packed into one BatchTrialBits
// word.
const MCWordBits = mc.WordBits

// MCBitWords returns the number of uint64 words a BatchTrialBits output
// buffer needs for n trials: ⌈n/64⌉.
func MCBitWords(n int) int { return mc.BitWords(n) }

// MCConfig configures a direct Monte Carlo run (trials, workers, seed).
// Most callers should prefer a Query through Estimate; the direct
// harness entry points below exist for custom BatchTrialBits
// experiments outside the registry's kinds.
type MCConfig = mc.Config

// MCResult is a direct Monte Carlo estimate with its Wilson interval.
type MCResult = mc.Result

// EstimateProbabilityBits runs a custom bit-parallel batched trial
// through the Monte Carlo harness: deterministic chunked substreams
// (results depend only on cfg.Trials and cfg.Seed, never on
// cfg.Workers), zero steady-state allocations, cooperative
// cancellation. This is the same engine every registry kind runs on.
func EstimateProbabilityBits(ctx context.Context, cfg MCConfig, batch BatchTrialBits) (*MCResult, error) {
	return mc.EstimateProbabilityBits(ctx, cfg, batch)
}

// HybridResult is a Theorem 6.1 hybrid estimate.
type HybridResult = core.HybridResult

// ScalingRow is one row of a Theorem 6.3 thread-scaling sweep.
type ScalingRow = core.ScalingRow

// Query is the canonical estimation request: the full (model, threads,
// prefix, p, s, trials, seed, confidence, max gamma, kind) tuple that
// every surface — this facade, sweeps, the HTTP service, the CLIs —
// dispatches through one registry. Start from DefaultQuery.
type Query = estimator.Query

// QueryResult is the unified estimator result: point estimate, interval,
// log-domain value, per-kind diagnostics, and cost/timing metadata.
type QueryResult = estimator.Result

// Kind names an estimation route in the estimator registry. It is the
// same type as SweepKind: a sweep cell's kind and a direct Query's kind
// interchange freely.
type Kind = estimator.Kind

// BatchOptions tunes an EstimateBatch run (worker budget, timing,
// progress callback) without affecting its results.
type BatchOptions = estimator.BatchOptions

// Precision requests adaptive-precision estimation on a Query (set
// Query.Precision): Monte Carlo runs in deterministic chunk-aligned
// rounds until the confidence interval meets the configured absolute
// half-width and/or relative-error target, capped at MaxTrials (0 =
// Query.Trials). The result's TrialsUsed, Rounds, and StopReason record
// the cost and whether the targets were met (StopConverged) or the
// budget ran out (StopBudget). Trials-consumed is itself deterministic
// in the query — worker counts never change it.
type Precision = estimator.Precision

// QueryResult.StopReason values for adaptive queries.
const (
	// StopConverged: every requested precision target was met.
	StopConverged = estimator.StopConverged
	// StopBudget: MaxTrials ran out before the targets held; the
	// estimate has NOT reached the requested precision.
	StopBudget = estimator.StopBudget
)

// DefaultConfidence is the Wilson-interval level used when a Query
// leaves Confidence at zero.
const DefaultConfidence = estimator.DefaultConfidence

// DefaultQuery returns the paper's normal form — hybrid estimation of
// Pr[A] at n = 2, m = 64, p = s = 1/2, 50000 trials, seed 1, 99%
// confidence, max gamma 8. Every surface's defaults (this facade's
// helpers included) derive from it; set Model and override fields as
// needed.
func DefaultQuery() Query { return estimator.DefaultQuery() }

// Estimate evaluates one Query through the estimator registry: canonical
// validation, exact-DP clamping, and deterministic seed derivation in
// one place. The result depends only on the Query — never on scheduling.
func Estimate(ctx context.Context, q Query) (QueryResult, error) {
	return estimator.Estimate(ctx, q)
}

// EstimateBatch evaluates the queries concurrently under a bounded
// worker pool and returns results in query order. Each result is
// identical to what a lone Estimate of that query returns, at any
// worker budget; opts.Progress observes completions.
func EstimateBatch(ctx context.Context, queries []Query, opts BatchOptions) ([]QueryResult, error) {
	return estimator.EstimateBatch(ctx, queries, opts)
}

// EstimatorKinds lists every registered estimator kind in canonical
// order (exact, mc, hybrid, windowdist, then extensions).
func EstimatorKinds() []Kind { return estimator.Kinds() }

// SweepSpec declaratively describes an experiment sweep: a grid of
// models × thread counts × prefix lengths × estimator kinds, plus trials,
// seed, and worker budget.
type SweepSpec = sweep.Spec

// SweepKind names an estimation route within a sweep.
type SweepKind = sweep.Kind

// Sweep estimator kinds.
const (
	SweepExact      = sweep.Exact
	SweepFullMC     = sweep.FullMC
	SweepHybrid     = sweep.Hybrid
	SweepWindowDist = sweep.WindowDist
	// SweepCompiledMC is full Monte Carlo on the query-compiled kernel
	// engine — bit-identical to SweepFullMC on the same query, and
	// faster per trial on every registered model (README "Kernel
	// architecture" quotes core's BenchmarkEngines ratios).
	SweepCompiledMC = sweep.CompiledMC
)

// SweepArtifact is the versioned, reproducible result of a sweep run.
type SweepArtifact = sweep.Artifact

// SweepArtifactVersion is the schema version stamped on every sweep
// artifact, including those served by the /v1/sweeps API.
const SweepArtifactVersion = sweep.ArtifactVersion

// SweepExactPrefixCap is the largest prefix length the exact dynamic
// programs accept; exact and window-distribution computations clamp m to
// it everywhere (sweep cells, the serve API, and WindowDistribution).
const SweepExactPrefixCap = sweep.ExactPrefixCap

// SweepCellResult is one completed sweep grid cell.
type SweepCellResult = sweep.CellResult

// SweepOptions tunes a sweep run (timing, progress sink) without
// affecting its results.
type SweepOptions = sweep.Options

// LitmusTest is a named litmus test with per-model expectations.
type LitmusTest = litmus.Test

// LitmusResult is a litmus conformance result.
type LitmusResult = litmus.Result

// MachineProgram is an operational multiprocessor program.
type MachineProgram = machine.Program

// SC returns Sequential Consistency.
func SC() Model { return memmodel.SC() }

// TSO returns Total Store Order.
func TSO() Model { return memmodel.TSO() }

// PSO returns Partial Store Order.
func PSO() Model { return memmodel.PSO() }

// WO returns Weak Ordering.
func WO() Model { return memmodel.WO() }

// AllModels returns the four canonical models, strongest first.
func AllModels() []Model { return memmodel.All() }

// ModelByName resolves "SC", "TSO", "PSO", or "WO" (case-insensitive).
func ModelByName(name string) (Model, error) { return memmodel.ByName(name) }

// WindowDistribution returns the exact distribution of the critical-window
// growth Pr[B_γ], γ ∈ [0, maxGamma], for a random program of the given
// prefix length settled under the model with the paper's normal-form
// parameters p = s = 1/2 (Theorem 4.1's quantity, at finite m).
//
// Prefix lengths above SweepExactPrefixCap are clamped to it, exactly as
// the estimator registry clamps every windowdist query: the exact DP's
// state space is 2^m, so larger prefixes are intractable, and the
// finite-m truncation error already decays geometrically well below the
// cap.
//
// Deprecated-style shim: it is a thin adapter over Estimate with
// Kind = SweepWindowDist; new code should build a Query to control p, s,
// and the prefix directly.
func WindowDistribution(model Model, prefixLen, maxGamma int) ([]float64, error) {
	q := DefaultQuery()
	q.Kind = SweepWindowDist
	q.Model = model.Name()
	q.PrefixLen = prefixLen
	q.MaxGamma = maxGamma
	res, err := Estimate(context.Background(), q)
	if err != nil {
		return nil, err
	}
	// The registry tabulates Pr[B_γ] only up to the effective prefix
	// length; the probability of growth beyond it is exactly zero, so
	// pad to the requested support.
	out := make([]float64, maxGamma+1)
	copy(out, res.Dist)
	return out, nil
}

// TwoThreadNoBugProbability returns rigorous bounds on Pr[A] for two
// threads under the model (Theorem 6.2's quantity), computed exactly from
// the settling dynamic program. It is a shim over Estimate with
// Kind = SweepExact at m = 16.
func TwoThreadNoBugProbability(model Model) (Interval, error) {
	q := DefaultQuery()
	q.Kind = SweepExact
	q.Model = model.Name()
	q.PrefixLen = 16
	res, err := Estimate(context.Background(), q)
	if err != nil {
		return Interval{}, err
	}
	return Interval{Lo: res.Lo, Hi: res.Hi}, nil
}

// NoBugProbability estimates Pr[A] for the given model and thread count by
// full Monte Carlo over the joined process, returning the point estimate
// with its Wilson interval at DefaultConfidence (99%).
//
// Deprecated-style shim: it is a thin adapter over Estimate with
// Kind = SweepFullMC and the DefaultQuery normal form; build a Query to
// choose another confidence level, prefix length, or probabilities.
func NoBugProbability(ctx context.Context, model Model, threads, trials int, seed uint64) (estimate, lo, hi float64, err error) {
	q := DefaultQuery()
	q.Kind = SweepFullMC
	q.Model = model.Name()
	q.Threads = threads
	q.Trials = trials
	q.Seed = seed
	res, err := Estimate(ctx, q)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Estimate, res.Lo, res.Hi, nil
}

// HybridNoBugProbability estimates Pr[A] via Theorem 6.1 (analytic shift
// combinatorics, Monte Carlo window expectation); unlike NoBugProbability
// it stays accurate when Pr[A] is astronomically small.
//
// Deprecated-style shim over Estimate with Kind = SweepHybrid; the
// returned HybridResult is assembled from the QueryResult's estimate,
// log estimate, and hybrid diagnostics.
func HybridNoBugProbability(ctx context.Context, model Model, threads, trials int, seed uint64) (*HybridResult, error) {
	q := DefaultQuery()
	q.Kind = SweepHybrid
	q.Model = model.Name()
	q.Threads = threads
	q.Trials = trials
	q.Seed = seed
	res, err := Estimate(ctx, q)
	if err != nil {
		return nil, err
	}
	return &HybridResult{
		PrA:                res.Estimate,
		LogPrA:             res.LogEstimate,
		ProductExpectation: res.ProductExpectation,
		StdErr:             res.StdErr,
		TrialsUsed:         res.TrialsUsed,
	}, nil
}

// ThreadScaling sweeps thread counts for the given models and reports the
// Theorem 6.3 normalized decay rates −ln Pr[A]/n² and their ratio to SC.
// The sweep runs through the orchestration engine: one hybrid cell per
// model × n, sharded across a worker pool, deterministic in the seed.
// Cells use DefaultQuery's normal-form prefix length (m = 64), so the
// paper's normal form is defined in exactly one place.
func ThreadScaling(ctx context.Context, models []Model, ns []int, trials int, seed uint64) ([]ScalingRow, error) {
	return sweep.ThreadScaling(ctx, models, ns, DefaultQuery().PrefixLen,
		mc.Config{Trials: trials, Seed: seed})
}

// DefaultSweepSpec returns a spec pre-filled with the paper's normal-form
// scalar parameters (p = s = 1/2, max gamma 8); fill in the grid fields
// before running it.
func DefaultSweepSpec() SweepSpec { return sweep.DefaultSpec() }

// RunSweep expands the spec's grid, runs every cell, and returns the
// collected artifact. Artifacts are reproducible: identical (spec, seed)
// produce byte-identical JSON regardless of the spec's worker budget.
// Start from DefaultSweepSpec unless you mean to set every scalar field
// yourself — zero probabilities are honored as genuine zeros.
func RunSweep(ctx context.Context, spec SweepSpec, opts SweepOptions) (*SweepArtifact, error) {
	return sweep.Run(ctx, spec, opts)
}

// DecodeSweepArtifact reads a JSON sweep artifact — a `memsweep -o` file
// or a `/v1/sweeps/{id}/artifact` response body — rejecting artifacts
// whose schema version is not SweepArtifactVersion, per the artifact
// contract.
func DecodeSweepArtifact(r io.Reader) (*SweepArtifact, error) {
	return sweep.DecodeArtifact(r)
}

// LitmusTests returns the built-in litmus registry (SB, MP, LB, 2+2W,
// CoRR, IRIW, INC).
func LitmusTests() []LitmusTest { return litmus.Registry() }

// LitmusCheckAll exhaustively checks every registered litmus test under
// every canonical model against its expected allowed/forbidden status.
func LitmusCheckAll() ([]LitmusResult, error) { return litmus.CheckAll() }

// Server is the HTTP estimation service: a JSON API over the estimators
// and the sweep engine with a get-or-compute-once LRU response cache
// (concurrent identical requests compute once) and async sweep jobs on
// a bounded worker pool. It implements http.Handler; cmd/memserved is
// the ready-made daemon.
type Server = serve.Server

// ServeConfig configures a Server; its zero value gets sensible
// defaults.
type ServeConfig = serve.Config

// EstimateRequest is the POST /v1/estimate request body.
type EstimateRequest = serve.EstimateRequest

// EstimateResponse is the POST /v1/estimate response body.
type EstimateResponse = serve.EstimateResponse

// NewServer returns a started estimation service. Responses for
// identical (request, seed) are byte-identical — the service inherits
// the sweep engine's reproducibility guarantee. Call Close to release
// its workers.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Span is one node of a query-scoped trace: a named, timed interval
// with attributes and children. Spans observe the estimate lifecycle at
// its sequential barriers only, so the same (query, seed) yields the
// identical span structure at any worker count and estimation results
// are never perturbed. All methods are nil-safe — an untraced run pays
// only a nil check.
type Span = obs.Span

// NewTrace starts a root span. Attach it to a context with WithSpan and
// pass that context to Estimate/EstimateBatch/SweepRun; the engine adds
// children at validation, dispatch, adaptive rounds, and merge points.
// After End, Span.WriteJSON exports the tree.
func NewTrace(name string) *Span { return obs.NewTrace(name) }

// WithSpan returns a context carrying the span for the engine to attach
// children to.
func WithSpan(ctx context.Context, s *Span) context.Context { return obs.WithSpan(ctx, s) }

// MetricsRegistry is a typed metrics registry (atomic counters, gauges,
// fixed-bucket histograms) with deterministic Prometheus text
// exposition via WritePrometheus.
type MetricsRegistry = obs.Registry

// EngineMetrics returns the process-global registry the estimation
// engine instruments (estimator_*, mc_*, core_*, sweep_* families).
// Servers additionally expose it at GET /metrics/prom.
func EngineMetrics() *MetricsRegistry { return obs.Default() }
