// Package estimator is the unified query surface over the paper's
// estimation routes. Every frontend — the memreliability facade, the
// sweep engine's grid cells, the HTTP service's /v1/estimate and
// /v1/windowdist endpoints, and the cmd/ tools — expresses its work as a
// Query and dispatches it through one registry keyed by estimator Kind,
// so validation, defaulting (DefaultQuery) and seed derivation live in
// exactly one place.
//
// The registry maps a Kind (exact, mc, hybrid, windowdist) to an
// Estimator implementation; new backends (distributed workers,
// alternative samplers) plug in with Register and immediately become
// reachable from every surface. Reproducibility is inherited from the mc
// harness: a Result depends only on the Query — never on Exec's worker
// budget or goroutine scheduling.
package estimator

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/report"
)

// ErrBadQuery reports an invalid estimation query.
var ErrBadQuery = errors.New("estimator: bad query")

// ExactPrefixCap (16) is the prefix length at which bench/memload's
// exact checks evaluate the n = 2 DP: its estimate-models and
// hybrid-precision workloads clamp their exact reference value to it.
// No estimator reads it; every kind answers at the query's PrefixLen.
const ExactPrefixCap = 16

// DefaultConfidence is the confidence level of the Wilson intervals
// attached to full-Monte-Carlo results when the query leaves Confidence
// at zero.
const DefaultConfidence = 0.99

// Kind names an estimation route for Pr[A] (or, for WindowDist, for the
// Theorem 4.1 window distribution Pr[B_γ]). The canonical kinds are the
// registry's built-ins; Register adds more.
type Kind string

const (
	// Exact is the n=2 exact dynamic program (Theorem 6.2's quantity).
	Exact Kind = "exact"
	// FullMC is full end-to-end Monte Carlo of the joined process.
	FullMC Kind = "mc"
	// Hybrid is the Theorem 6.1 hybrid estimator (analytic shift
	// combinatorics × Monte Carlo product expectation).
	Hybrid Kind = "hybrid"
	// WindowDist tabulates the exact critical-window distribution
	// Pr[B_γ] (Theorem 4.1 at finite m); it is thread-count independent.
	WindowDist Kind = "windowdist"
	// CompiledMC is full Monte Carlo on the query-compiled kernel
	// engine (core's plan cache of monomorphized trial kernels) —
	// bit-identical to FullMC by the cross-engine promotion gate, and
	// faster per trial than FullMC's table-driven kernel on every
	// registered model (core's BenchmarkEngines).
	CompiledMC Kind = "mc-compiled"
)

// Valid reports whether k resolves in the estimator registry.
func (k Kind) Valid() bool {
	_, ok := Lookup(k)
	return ok
}

// NeedsTrials reports whether the kind consumes Monte Carlo trials.
func (k Kind) NeedsTrials() bool {
	e, ok := Lookup(k)
	return ok && e.NeedsTrials()
}

// DisplayName returns the human-readable estimator label used in tables.
func (k Kind) DisplayName() string {
	if e, ok := Lookup(k); ok {
		return e.DisplayName()
	}
	return string(k)
}

// ThreadLimit and PrefixLimit bound a query's threads and prefix_len, as
// mc.TrialLimit bounds its trials: the trial engines size per-thread and
// per-position scratch from them, so an unbounded value fails the
// allocation and kills the process, and the exact DP's O(m²) time grows
// without bound in m. Every size the paper's questions need is far below
// them. PrefixLimit bounds every kind; ThreadLimit only the Monte Carlo
// kinds, since exact answers only n = 2 and windowdist ignores threads.
const (
	ThreadLimit = 4096
	PrefixLimit = 4096
)

// Query is the canonical request for one estimate: the full
// (model, threads, prefix, p, s, trials, seed, confidence, max gamma,
// kind) tuple that every surface previously re-encoded privately.
//
// The JSON tags are the wire encoding shared by the HTTP service's cache
// keys; field order is fixed, so a canonicalized Query always marshals
// to the same bytes.
type Query struct {
	// Kind selects the estimation route in the registry.
	Kind Kind `json:"kind"`
	// Model is a memory model name resolvable by memmodel.ByName.
	Model string `json:"model"`
	// Threads is n, the number of concurrent buggy threads (≥ 2, and at
	// most ThreadLimit for mc/hybrid queries). WindowDist queries ignore
	// it (the distribution is thread-count independent).
	Threads int `json:"threads"`
	// PrefixLen is m, the random-program prefix length (1 ≤ m ≤
	// PrefixLimit). Every kind answers at it.
	PrefixLen int `json:"prefix_len"`
	// StoreProb is p and SwapProb is s; zeros are honored as genuine
	// probabilities (DefaultQuery gives the paper's normal form 1/2).
	StoreProb float64 `json:"store_prob"`
	SwapProb  float64 `json:"swap_prob"`
	// Trials is the Monte Carlo budget (mc and hybrid kinds only), at
	// most mc.TrialLimit.
	Trials int `json:"trials"`
	// Seed fully determines the result: the estimator derives its RNG
	// substream from it exactly as a single-cell sweep would.
	Seed uint64 `json:"seed"`
	// Confidence is the Wilson-interval level of mc results. Zero
	// selects DefaultConfidence (0.99).
	Confidence float64 `json:"confidence"`
	// MaxGamma bounds the tabulated support of windowdist results
	// (clamped to the prefix length, past which γ has no mass).
	MaxGamma int `json:"max_gamma"`
	// Precision, when non-nil, switches the trial-consuming kinds (mc,
	// hybrid) to adaptive-precision sampling: deterministic chunk-aligned
	// rounds until the confidence interval meets the targets or the trial
	// budget cap runs out. Nil keeps the fixed-Trials mode, and keeps the
	// query's JSON encoding — and thus every canonical cache key — byte-
	// identical to the pre-adaptive wire form.
	Precision *Precision `json:"precision,omitempty"`
}

// Precision is an adaptive-precision request: run Monte Carlo until the
// confidence interval (at the query's Confidence level) meets every
// configured target, or MaxTrials is exhausted. At least one target must
// be positive. It is validated and normalized here, in exactly one place,
// for every surface — sweeps, the HTTP service, the CLIs, and direct
// queries.
type Precision struct {
	// TargetHalfWidth, when positive, is the requested absolute interval
	// half-width on the estimate (for hybrid queries, on Pr[A] itself —
	// the engine rescales it onto the product expectation analytically).
	TargetHalfWidth float64 `json:"target_half_width,omitempty"`
	// TargetRelErr, when positive, requires half-width ≤ TargetRelErr ×
	// estimate. This is the deep-tail mode: an estimate of zero never
	// satisfies it, so rare-event cells report budget exhaustion instead
	// of a vacuous empty interval.
	TargetRelErr float64 `json:"target_rel_err,omitempty"`
	// MaxTrials caps the trial budget, at most mc.TrialLimit. Zero
	// defaults to the query's Trials (normalization fills it in, so
	// cache keys are canonical).
	MaxTrials int `json:"max_trials,omitempty"`
}

// Validate checks the precision block's fields. Positive-form checks
// reject NaN up front, mirroring the query's probability fields.
func (p Precision) Validate() error {
	if !(p.TargetHalfWidth >= 0 && p.TargetHalfWidth <= 1) {
		return fmt.Errorf("%w: target half-width %v (need 0 ≤ w ≤ 1)", ErrBadQuery, p.TargetHalfWidth)
	}
	if !(p.TargetRelErr >= 0) || math.IsInf(p.TargetRelErr, 1) {
		return fmt.Errorf("%w: target relative error %v", ErrBadQuery, p.TargetRelErr)
	}
	if p.TargetHalfWidth == 0 && p.TargetRelErr == 0 {
		return fmt.Errorf("%w: precision block needs a positive target_half_width or target_rel_err", ErrBadQuery)
	}
	if p.MaxTrials < 0 || p.MaxTrials > mc.TrialLimit {
		return fmt.Errorf("%w: max trials %d (need 0 ≤ n ≤ %d)", ErrBadQuery, p.MaxTrials, mc.TrialLimit)
	}
	return nil
}

// Normalized returns a copy with MaxTrials defaulted from the fixed
// trial budget, so a request that spells the default out and one that
// omits it are identical — and collide wherever canonicalized queries
// and sweep specs are hashed or cached. It is the one place that
// default is written.
func (p Precision) Normalized(trials int) Precision {
	if p.MaxTrials == 0 {
		p.MaxTrials = trials
	}
	return p
}

// DefaultQuery returns the paper's normal form — hybrid estimation of
// Pr[A] at n = 2, m = 64, p = s = 1/2, 50000 trials, seed 1, 99%
// confidence, max gamma 8. Every surface's defaults derive from it.
func DefaultQuery() Query {
	return Query{
		Kind:       Hybrid,
		Threads:    2,
		PrefixLen:  64,
		StoreProb:  0.5,
		SwapProb:   0.5,
		Trials:     50000,
		Seed:       1,
		Confidence: DefaultConfidence,
		MaxGamma:   8,
	}
}

// Normalized returns a copy of the query with its model name rewritten
// to canonical casing ("tso" → "TSO") and its kind lowercased, so that
// queries differing only in case are identical — and collide wherever
// canonicalized queries are hashed or cached. Unresolvable names pass
// through for Validate to reject.
func (q Query) Normalized() Query {
	out := q
	out.Kind = Kind(strings.ToLower(string(q.Kind)))
	if m, err := memmodel.ByName(q.Model); err == nil {
		out.Model = m.Name()
	}
	if q.Precision != nil {
		// Clone before defaulting: queries are passed by value, and the
		// caller's block must not be mutated through the shared pointer.
		p := q.Precision.Normalized(q.Trials)
		out.Precision = &p
	}
	return out
}

// Validate checks the query against the canonical rules shared by every
// surface. Call Normalized first; Estimate does both. Every rejection
// increments the estimator_validation_failures_total metric — this is
// the single counting point, so surfaces that pre-validate (batch,
// sweep, serve) and the dispatch path never double-count.
func (q Query) Validate() error {
	err := q.validate()
	if err != nil {
		validationFailures.Inc()
	}
	return err
}

func (q Query) validate() error {
	if !q.Kind.Valid() {
		return fmt.Errorf("%w: unknown estimator %q", ErrBadQuery, q.Kind)
	}
	if _, err := memmodel.ByName(q.Model); err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if q.Kind != WindowDist && q.Threads < 2 {
		return fmt.Errorf("%w: threads=%d (need ≥ 2)", ErrBadQuery, q.Threads)
	}
	if q.PrefixLen < 1 || q.PrefixLen > PrefixLimit {
		return fmt.Errorf("%w: prefix length %d (need 1 ≤ m ≤ %d)", ErrBadQuery, q.PrefixLen, PrefixLimit)
	}
	if q.Kind.NeedsTrials() {
		if q.Threads > ThreadLimit {
			return fmt.Errorf("%w: threads=%d (mc/hybrid queries need n ≤ %d)", ErrBadQuery, q.Threads, ThreadLimit)
		}
		if q.Trials < 1 || q.Trials > mc.TrialLimit {
			return fmt.Errorf("%w: trials=%d (mc/hybrid queries need 1 ≤ n ≤ %d)", ErrBadQuery, q.Trials, mc.TrialLimit)
		}
	}
	// Positive-form range checks so NaN fails validation up front
	// instead of surfacing as a downstream stats error (or an
	// unencodable NaN result) after the trial budget is spent.
	if !(q.StoreProb >= 0 && q.StoreProb <= 1) {
		return fmt.Errorf("%w: store probability %v", ErrBadQuery, q.StoreProb)
	}
	if !(q.SwapProb >= 0 && q.SwapProb <= 1) {
		return fmt.Errorf("%w: swap probability %v", ErrBadQuery, q.SwapProb)
	}
	if q.Confidence != 0 && !(q.Confidence > 0 && q.Confidence < 1) {
		return fmt.Errorf("%w: confidence %v (need 0 < c < 1, or 0 for the default)", ErrBadQuery, q.Confidence)
	}
	if q.MaxGamma < 0 {
		return fmt.Errorf("%w: max gamma %d", ErrBadQuery, q.MaxGamma)
	}
	if q.Precision != nil {
		if !q.Kind.NeedsTrials() {
			return fmt.Errorf("%w: precision requires a Monte Carlo kind, not %q", ErrBadQuery, q.Kind)
		}
		if err := q.Precision.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// confidence returns the effective Wilson level.
func (q Query) confidence() float64 {
	if q.Confidence == 0 {
		return DefaultConfidence
	}
	return q.Confidence
}

// Result is the unified estimator result: the point estimate with its
// interval and log-domain value, per-kind diagnostics, and cost/timing
// metadata.
type Result struct {
	// Kind echoes the estimation route that produced the result.
	Kind Kind `json:"kind"`

	// Skipped marks a query the route cannot satisfy inside a batch
	// (e.g. the exact DP at n ≠ 2); Note records why.
	Skipped bool   `json:"skipped,omitempty"`
	Note    string `json:"note,omitempty"`

	// EffectiveM is the prefix length the result is for: the query's
	// PrefixLen, on every kind.
	EffectiveM int `json:"effective_m"`

	// Estimate is the Pr[A] point estimate — or, for windowdist, the
	// mean window growth E[γ] over the tabulated support. LogEstimate
	// is ln Pr[A] (0 when the estimate is 0 or the query was skipped),
	// finite even when Estimate underflows float64.
	Estimate    float64 `json:"estimate"`
	LogEstimate float64 `json:"log_estimate"`
	// Lo and Hi bracket the estimate: exact-DP truncation bounds, or
	// the Wilson interval at Confidence for full Monte Carlo.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Confidence is the Wilson level of Lo/Hi (mc results only).
	Confidence float64 `json:"confidence,omitempty"`

	// StdErr is the standard error of the hybrid product expectation,
	// and ProductExpectation its point estimate (hybrid diagnostics).
	StdErr             float64 `json:"std_err,omitempty"`
	ProductExpectation float64 `json:"product_expectation,omitempty"`

	// Dist tabulates Pr[B_γ], γ ∈ [0, min(MaxGamma, EffectiveM)]
	// (windowdist results).
	Dist []float64 `json:"dist,omitempty"`

	// TrialsUsed is the Monte Carlo cost of the result (0 for the
	// deterministic routes); for adaptive queries it is the trials
	// actually consumed, which is itself deterministic in the query.
	// ElapsedMS is wall-clock time, populated only when Exec.Timing is
	// set because timing breaks byte-level reproducibility of encoded
	// results.
	TrialsUsed int     `json:"trials_used,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms,omitempty"`

	// Rounds and StopReason are the adaptive-precision diagnostics:
	// Rounds counts the chunk-aligned sampling rounds, and StopReason is
	// StopConverged when every target was met or StopBudget when
	// MaxTrials ran out first — budget exhaustion is always reported,
	// never silently folded into a converged-looking result. Both are
	// empty for fixed-trials queries.
	Rounds     int    `json:"rounds,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
}

// Result.StopReason values, matching the mc harness's stop reasons.
const (
	// StopConverged: every requested precision target was met.
	StopConverged = "converged"
	// StopBudget: the trial budget cap ran out before the targets held.
	StopBudget = "budget"
)

// Notes summarizes the result's secondary outputs (CI bracket, log
// estimate, tabulated distribution, skip reason) as a display string.
// Every renderer of estimator rows — sweep artifact tables, cmd/memrisk
// — shares this so per-kind annotations cannot drift apart.
func (r Result) Notes() string {
	var notes []string
	switch {
	case r.Skipped:
		notes = append(notes, "skipped: "+r.Note)
	default:
		switch r.Kind {
		case Exact:
			notes = append(notes, report.FormatInterval(r.Lo, r.Hi))
		case FullMC, CompiledMC:
			level := r.Confidence
			if level == 0 {
				level = DefaultConfidence
			}
			notes = append(notes, fmt.Sprintf("%.0f%% CI %s",
				level*100, report.FormatInterval(r.Lo, r.Hi)))
		case Hybrid:
			notes = append(notes, "ln Pr[A] = "+report.FormatRatio(r.LogEstimate))
		case WindowDist:
			cells := make([]string, len(r.Dist))
			for gamma, p := range r.Dist {
				cells[gamma] = fmt.Sprintf("P(%d)=%s", gamma, report.FormatRatio(p))
			}
			notes = append(notes, "estimate = E[γ]; "+strings.Join(cells, " "))
		}
		if r.StopReason != "" {
			notes = append(notes, fmt.Sprintf("adaptive: %d trials in %d rounds (%s)",
				r.TrialsUsed, r.Rounds, r.StopReason))
		}
		if r.Note != "" {
			notes = append(notes, r.Note)
		}
		if r.ElapsedMS > 0 {
			notes = append(notes, fmt.Sprintf("%.1fms", r.ElapsedMS))
		}
	}
	return strings.Join(notes, "; ")
}

// Exec tunes how a query executes without affecting its result.
type Exec struct {
	// Workers is the number of the estimate's own Monte Carlo workers;
	// 0 means GOMAXPROCS. Pure scheduling — results never depend on it.
	Workers int
	// Helpers, when non-nil, is the slot pool the estimate shares with
	// concurrent computations: beside its own Workers, its Monte Carlo
	// borrows each free slot for one chunk at a time (mc.Config.Helpers).
	// Pure scheduling too: a borrowed slot never changes a result.
	Helpers *mc.Pool
	// Timing records wall-clock time in the result. Off by default:
	// timing breaks byte-identical reproducibility of encoded results.
	Timing bool
}

// safeLog returns ln(x) for positive x and 0 otherwise, keeping results
// JSON-encodable (encoding/json rejects ±Inf).
func safeLog(x float64) float64 {
	if x > 0 {
		return math.Log(x)
	}
	return 0
}
