// Package sweep is the declarative experiment-orchestration subsystem.
//
// The paper's headline results (Theorems 4.1, 6.1, 6.3) are all sweeps:
// Pr[A] or Pr[B_γ] evaluated across a grid of memory models × thread
// counts × prefix lengths × estimator kinds. A Spec describes such a grid
// declaratively; the engine expands it into cells, shards the cells across
// a worker pool, and collects the results into a versioned Artifact that
// renders as tables/CSV via internal/report.
//
// Estimation itself lives in internal/estimator: every cell becomes one
// estimator.Query dispatched through the kind registry, so the engine
// adds orchestration (grid expansion, sharding, artifact collection) on
// top of the one canonical validation/clamping/dispatch path shared with
// the facade, the HTTP service, and the CLIs.
//
// Reproducibility is the engine's core guarantee: every cell derives one
// deterministic RNG seed from (spec seed, cell index), and the mc harness
// underneath is itself scheduling-independent (chunked substreams merged
// in chunk order), so an Artifact depends only on the Spec — never on the
// worker budget or goroutine scheduling. Identical (spec, seed) produce
// byte-identical JSON artifacts at any worker count.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"memreliability/internal/estimator"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/obs"
)

// ErrBadSpec reports an invalid sweep specification.
var ErrBadSpec = errors.New("sweep: bad spec")

// ExactPrefixCap re-exports the estimator registry's exact-DP prefix
// bound: exact and window-distribution cells clamp their prefix to it
// and record the clamp in the cell's note.
const ExactPrefixCap = estimator.ExactPrefixCap

// Kind names an estimation route. It is the estimator registry's key
// type: a sweep cell's kind and a direct estimator.Query kind are the
// same value, so anything registered there is immediately sweepable.
type Kind = estimator.Kind

const (
	// Exact is the n=2 exact dynamic program (Theorem 6.2's quantity).
	Exact = estimator.Exact
	// FullMC is full end-to-end Monte Carlo of the joined process.
	FullMC = estimator.FullMC
	// Hybrid is the Theorem 6.1 hybrid estimator (analytic shift
	// combinatorics × Monte Carlo product expectation).
	Hybrid = estimator.Hybrid
	// WindowDist tabulates the exact critical-window distribution
	// Pr[B_γ] (Theorem 4.1 at finite m); it is thread-count independent.
	WindowDist = estimator.WindowDist
	// CompiledMC is full Monte Carlo on the query-compiled kernel
	// engine, bit-identical to FullMC.
	CompiledMC = estimator.CompiledMC
)

// Kinds lists every registered estimator kind, in canonical order.
func Kinds() []Kind { return estimator.Kinds() }

// Spec declaratively describes one experiment sweep: the grid
// models × threads × prefix lengths × estimators, plus the trial budget,
// the experiment seed, and the worker budget.
//
// The zero value of a field selects the paper's default where one exists
// (see Normalized). Workers is pure scheduling: it never affects results
// and is therefore omitted from the artifact's spec echo.
type Spec struct {
	// Models are memory model names resolvable by memmodel.ByName.
	Models []string `json:"models"`
	// Threads are the thread counts n (each ≥ 2, and at most
	// estimator.ThreadLimit when an mc/hybrid estimator runs). Empty
	// means {2}.
	Threads []int `json:"threads,omitempty"`
	// PrefixLens are the prefix lengths m (each ≥ 1, and at most
	// estimator.PrefixLimit when an mc/hybrid estimator runs). Empty
	// means {64}.
	PrefixLens []int `json:"prefix_lens,omitempty"`
	// Estimators are the estimation routes to run per grid point.
	// Empty means {hybrid}.
	Estimators []Kind `json:"estimators,omitempty"`
	// Trials is the Monte Carlo trial budget per cell (mc and hybrid
	// cells only), at most mc.TrialLimit.
	Trials int `json:"trials,omitempty"`
	// Seed is the experiment seed; it fully determines the artifact.
	Seed uint64 `json:"seed"`
	// Workers is the sweep's budget of worker slots, shared by the
	// goroutines sharding cells and the Monte Carlo inside them (see
	// Run); 0 means GOMAXPROCS. Scheduling only — results never depend
	// on it.
	Workers int `json:"workers,omitempty"`
	// StoreProb is p. Zero is honored as a genuine probability (an
	// all-load program); start from DefaultSpec for the paper's normal
	// form 1/2.
	StoreProb float64 `json:"store_prob"`
	// SwapProb is s. Zero is honored (swaps never succeed, so every
	// model degenerates to SC); DefaultSpec gives the normal form 1/2.
	SwapProb float64 `json:"swap_prob"`
	// MaxGamma bounds the tabulated support of windowdist cells. Zero
	// tabulates only γ=0; DefaultSpec gives 8.
	MaxGamma int `json:"max_gamma"`
	// Precision, when set, switches every trial-consuming cell (mc,
	// hybrid) to adaptive-precision sampling: each cell stops as soon as
	// its confidence interval meets the targets, or at the trial budget
	// cap (MaxTrials; 0 defaults to Trials). Deterministic cells ignore
	// it. Adaptive artifacts record per-cell trials_used, rounds, and
	// stop_reason; fixed-trials artifacts (nil Precision) keep their
	// exact historical bytes.
	Precision *estimator.Precision `json:"precision,omitempty"`
}

// DefaultSpec returns a Spec pre-filled with the paper's normal-form
// scalar parameters (p = s = 1/2, max gamma 8). Grid fields are left
// empty and take their documented defaults at Run time; decode a JSON
// spec over this base so omitted scalar fields keep the paper defaults
// while explicit zeros stick.
func DefaultSpec() Spec {
	return Spec{StoreProb: 0.5, SwapProb: 0.5, MaxGamma: 8}
}

// Normalized returns a copy of the spec with every empty grid field
// replaced by its documented default, and model names rewritten to their
// canonical casing ("tso" → "TSO") so that specs differing only in case
// produce identical artifacts — and identical content addresses wherever
// specs are hashed. Unresolvable names are left as-is for Validate to
// reject. Scalar fields are never touched: zero probabilities are
// legitimate experiments, so their defaults live in DefaultSpec, not
// here.
func (s Spec) Normalized() Spec {
	out := s
	if len(out.Models) != 0 {
		out.Models = append([]string(nil), s.Models...)
		for i, name := range out.Models {
			if m, err := memmodel.ByName(name); err == nil {
				out.Models[i] = m.Name()
			}
		}
	}
	if len(out.Threads) == 0 {
		out.Threads = []int{2}
	}
	if len(out.PrefixLens) == 0 {
		out.PrefixLens = []int{64}
	}
	if len(out.Estimators) == 0 {
		out.Estimators = []Kind{Hybrid}
	}
	if s.Precision != nil {
		// The estimator's rule, on a clone: specs differing only in
		// spelling the MaxTrials default out hash to the same content
		// address.
		p := s.Precision.Normalized(s.Trials)
		out.Precision = &p
	}
	return out
}

// Identity returns what identifies the sweep the spec describes: the
// normalized spec with the worker budget zeroed. Workers is pure
// scheduling, so specs that differ only in it, or in spelling a default
// out, share one identity. Every artifact's spec echo and every content
// address of a sweep (serve's job IDs) is this value.
func (s Spec) Identity() Spec {
	out := s.Normalized()
	out.Workers = 0
	return out
}

// Validate checks a normalized spec. Call Normalized first; Run does both.
func (s Spec) Validate() error {
	if len(s.Models) == 0 {
		return fmt.Errorf("%w: no models", ErrBadSpec)
	}
	for _, name := range s.Models {
		if _, err := memmodel.ByName(name); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	needTrials := false
	for _, k := range s.Estimators {
		if !k.Valid() {
			return fmt.Errorf("%w: unknown estimator %q", ErrBadSpec, k)
		}
		needTrials = needTrials || k.NeedsTrials()
	}
	for _, n := range s.Threads {
		if n < 2 {
			return fmt.Errorf("%w: threads=%d (need ≥ 2)", ErrBadSpec, n)
		}
		if needTrials && n > estimator.ThreadLimit {
			return fmt.Errorf("%w: threads=%d (mc/hybrid cells need n ≤ %d)", ErrBadSpec, n, estimator.ThreadLimit)
		}
	}
	for _, m := range s.PrefixLens {
		if m < 1 {
			return fmt.Errorf("%w: prefix length %d", ErrBadSpec, m)
		}
		if needTrials && m > estimator.PrefixLimit {
			return fmt.Errorf("%w: prefix length %d (mc/hybrid cells need m ≤ %d)", ErrBadSpec, m, estimator.PrefixLimit)
		}
	}
	if needTrials && (s.Trials < 1 || s.Trials > mc.TrialLimit) {
		return fmt.Errorf("%w: trials=%d (mc/hybrid cells need 1 ≤ n ≤ %d)", ErrBadSpec, s.Trials, mc.TrialLimit)
	}
	if s.Workers < 0 {
		return fmt.Errorf("%w: workers=%d", ErrBadSpec, s.Workers)
	}
	if !(s.StoreProb >= 0 && s.StoreProb <= 1) {
		return fmt.Errorf("%w: store probability %v", ErrBadSpec, s.StoreProb)
	}
	if !(s.SwapProb >= 0 && s.SwapProb <= 1) {
		return fmt.Errorf("%w: swap probability %v", ErrBadSpec, s.SwapProb)
	}
	if s.MaxGamma < 0 {
		return fmt.Errorf("%w: max gamma %d", ErrBadSpec, s.MaxGamma)
	}
	if s.Precision != nil {
		if err := s.Precision.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	return nil
}

// Cell is one grid point of an expanded sweep. Threads is 0 for
// windowdist cells, which are thread-count independent.
type Cell struct {
	Index     int    `json:"index"`
	Model     string `json:"model"`
	Threads   int    `json:"threads"`
	PrefixLen int    `json:"prefix_len"`
	Estimator Kind   `json:"estimator"`
}

// Expand enumerates the grid cells of a normalized spec in deterministic
// order: models (outer) × threads × prefix lengths × estimators (inner).
// Windowdist cells are emitted once per model × prefix length, not once
// per thread count.
func (s Spec) Expand() []Cell {
	var cells []Cell
	for _, model := range s.Models {
		for ti, n := range s.Threads {
			for _, m := range s.PrefixLens {
				for _, k := range s.Estimators {
					threads := n
					if k == WindowDist {
						if ti != 0 {
							continue
						}
						threads = 0
					}
					cells = append(cells, Cell{
						Index:     len(cells),
						Model:     model,
						Threads:   threads,
						PrefixLen: m,
						Estimator: k,
					})
				}
			}
		}
	}
	return cells
}

// CellResult is one completed (or skipped) cell. For probability
// estimators, Estimate is the Pr[A] point estimate and LogEstimate its
// natural log (0 when the estimate is 0 or the cell is skipped); Lo/Hi
// bracket it (exact-DP truncation bounds, or the 99% Wilson interval for
// full Monte Carlo). For windowdist cells, Dist tabulates Pr[B_γ] for
// γ ∈ [0, MaxGamma] and Estimate is the mean window growth E[γ] over the
// tabulated support.
type CellResult struct {
	Cell

	Skipped bool   `json:"skipped,omitempty"`
	Note    string `json:"note,omitempty"`

	// EffectiveM is the prefix length the estimator actually used:
	// equal to PrefixLen unless the exact DP clamped it to
	// ExactPrefixCap.
	EffectiveM int `json:"effective_m"`

	Estimate    float64 `json:"estimate"`
	LogEstimate float64 `json:"log_estimate"`
	Lo          float64 `json:"lo"`
	Hi          float64 `json:"hi"`
	// Confidence is the Wilson level of Lo/Hi when it differs from the
	// default (possible only for single-cell serve requests with an
	// explicit level); 0 means estimator.DefaultConfidence. Grid cells
	// always compute at the default, so artifacts never carry it.
	Confidence float64 `json:"confidence,omitempty"`
	// StdErr is the standard error of the hybrid product expectation.
	StdErr float64 `json:"std_err,omitempty"`
	// Dist is the tabulated window distribution (windowdist cells).
	Dist []float64 `json:"dist,omitempty"`
	// ElapsedMS is wall-clock cell time; populated only when timing is
	// requested, because it breaks byte-level artifact reproducibility.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`

	// TrialsUsed, Rounds, and StopReason are recorded only for cells
	// estimated adaptively (a spec with a Precision block): the trials
	// the cell actually consumed, the sampling rounds it took, and
	// whether it converged or exhausted the budget cap. Fixed-trials
	// cells leave them zero, keeping historical artifacts byte-identical.
	TrialsUsed int    `json:"trials_used,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
}

// Options tunes a Run without affecting its results.
type Options struct {
	// Timing records per-cell wall-clock time in the artifact. Off by
	// default: timing breaks byte-identical reproducibility.
	Timing bool
	// Sink, when non-nil, receives each cell result as it completes
	// (completion order, not index order). Calls are serialized.
	Sink func(CellResult)
}

// Run expands the spec, shards its cells across the worker pool, and
// returns the collected artifact with cells in index order.
//
// The spec's Workers budget is one slot pool (mc.Pool): each cell
// goroutine holds a slot while cells remain to be fed, and the Monte
// Carlo of every cell in flight borrows the free slots one chunk at a
// time. A goroutine gives its slot back when the feed runs dry, so the
// last cells in flight can borrow it, and a grid narrower than the
// budget (a single cell, say) spreads its cells' chunks over the whole
// budget. Results never depend on which slot ran a chunk.
func Run(ctx context.Context, spec Spec, opts Options) (*Artifact, error) {
	norm := spec.Normalized()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	sweepRuns.Inc()
	buildStart := time.Now()
	cells := norm.Expand()

	// One deterministic RNG substream seed per cell, fixed by the spec
	// seed and the cell index alone (the canonical estimator
	// derivation).
	seeds := estimator.DeriveSeeds(norm.Seed, len(cells))

	results := make([]CellResult, len(cells))
	var sinkMu sync.Mutex
	err := estimator.FanOut(ctx, norm.Workers, len(cells),
		func(parent *obs.Span, idx int) *obs.Span {
			return parent.Child("sweep.cell",
				obs.L("index", strconv.Itoa(idx)),
				obs.L("model", cells[idx].Model),
				obs.L("kind", string(cells[idx].Estimator)))
		},
		func(ctx context.Context, idx int, pool *mc.Pool) error {
			res, err := runCell(ctx, norm, cells[idx], seeds[idx],
				estimator.Exec{Workers: 1, Helpers: pool, Timing: opts.Timing})
			if err != nil {
				sweepCellsFailed.Inc()
				return err
			}
			sweepCellsCompleted.Inc()
			results[idx] = res
			if opts.Sink != nil {
				sinkMu.Lock()
				opts.Sink(res)
				sinkMu.Unlock()
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}

	// The echo is the spec's identity, without the worker budget, so
	// artifacts are byte-identical across -workers.
	sweepArtifactBuildSeconds.Observe(time.Since(buildStart).Seconds())
	return &Artifact{
		SchemaVersion: ArtifactVersion,
		Spec:          spec.Identity(),
		Cells:         results,
	}, nil
}

// Query translates one grid cell of the spec into the canonical
// estimator query it dispatches. The spec's scalar fields and the cell's
// grid coordinates meet here — the only place a sweep encodes estimator
// parameters.
//
// Seed is the spec's experiment seed; the engine does NOT feed it
// through estimator.Estimate's single-query derivation. Instead each
// cell runs on its own substream, estimator.DeriveSeeds(spec.Seed,
// len(cells))[cell.Index], passed to estimator.Run directly — so
// reproducing cell i outside the engine requires that same derivation,
// not a bare Estimate of this query.
func (s Spec) Query(cell Cell) estimator.Query {
	q := estimator.Query{
		Kind:       cell.Estimator,
		Model:      cell.Model,
		Threads:    cell.Threads,
		PrefixLen:  cell.PrefixLen,
		StoreProb:  s.StoreProb,
		SwapProb:   s.SwapProb,
		Trials:     s.Trials,
		Seed:       s.Seed,
		Confidence: estimator.DefaultConfidence,
		MaxGamma:   s.MaxGamma,
	}
	// The precision block applies only to cells that consume trials;
	// attaching it to a deterministic cell would (correctly) fail the
	// query's canonical validation inside a mixed-kind grid.
	if s.Precision != nil && cell.Estimator.NeedsTrials() {
		p := *s.Precision
		q.Precision = &p
	}
	return q
}

// CellResultOf shapes a dispatched estimator result as the artifact
// cell for the given grid coordinates. It is the single conversion
// point shared with the serve API. The fixed-trials artifact schema's
// field set is frozen for byte compatibility: unified-result diagnostics
// that postdate it (Confidence, ProductExpectation, TrialsUsed) are
// persisted only when they carry information a fixed run cannot — a
// non-default Wilson level, or the per-cell cost of an adaptive run.
func CellResultOf(cell Cell, res estimator.Result) CellResult {
	// Only a non-default Wilson level is worth recording; the default is
	// elided to keep artifact bytes identical to the pre-Confidence
	// schema.
	confidence := res.Confidence
	if confidence == estimator.DefaultConfidence {
		confidence = 0
	}
	out := CellResult{
		Cell:        cell,
		Skipped:     res.Skipped,
		Note:        res.Note,
		EffectiveM:  res.EffectiveM,
		Estimate:    res.Estimate,
		LogEstimate: res.LogEstimate,
		Lo:          res.Lo,
		Hi:          res.Hi,
		Confidence:  confidence,
		StdErr:      res.StdErr,
		Dist:        res.Dist,
		ElapsedMS:   res.ElapsedMS,
	}
	// Adaptive cells persist their cost: for a fixed-trials cell the
	// count is just the spec's Trials, and writing it would break the
	// historical golden bytes.
	if res.StopReason != "" {
		out.TrialsUsed = res.TrialsUsed
		out.Rounds = res.Rounds
		out.StopReason = res.StopReason
	}
	return out
}

// runCell evaluates one cell on its private RNG substream by dispatching
// its query through the estimator registry. Trial-consuming cells (mc,
// hybrid) execute on the mc harness's batched hot path — whole chunks
// per batch call, zero steady-state allocations — which the registry
// routes give every cell for free; artifacts stay bit-identical to the
// per-trial era. ex schedules the cell's Monte Carlo and never changes
// its result.
func runCell(ctx context.Context, spec Spec, cell Cell, seed uint64, ex estimator.Exec) (CellResult, error) {
	res, err := estimator.Run(ctx, spec.Query(cell), seed, ex)
	if err != nil {
		return CellResult{Cell: cell, EffectiveM: cell.PrefixLen},
			fmt.Errorf("sweep: cell %d: %w", cell.Index, err)
	}
	return CellResultOf(cell, res), nil
}
