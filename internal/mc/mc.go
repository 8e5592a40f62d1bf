// Package mc is a parallel Monte Carlo harness. Every probability estimate
// in the benchmark suite — Pr[B_γ], Pr[A(γ̄)], Pr[A] — runs through it.
//
// The harness guarantees reproducibility under concurrency: trials are
// partitioned into fixed-size chunks, each chunk derives its own RNG
// substream from the experiment seed and its chunk index, and chunk
// results are merged in chunk order. An estimate therefore depends only
// on (seed, trials) — never on the worker count, the slots a run borrows
// from a shared Pool, or goroutine scheduling.
//
// # Trial contracts
//
// The harness has two batch contracts. Boolean trials implement
// BatchTrialBits and run through EstimateProbabilityBits and
// EstimateAdaptiveBits: the harness hands an implementation a whole
// chunk's reusable []uint64 buffer and the chunk's RNG substream, the
// implementation packs 64 trial outcomes into each word (LSB-first; see
// BatchTrialBits for the partial-word contract), and the engine counts
// successes with bits.OnesCount64 — so the per-trial call, scheduling,
// and counting overhead all collapse to a fraction of a word operation,
// and the steady-state chunk loop performs zero allocations (per-worker
// scratch is reused across chunks; per-chunk result slots are
// preallocated). A per-trial closure (Trial) reaches the same engine
// through BitsFromTrial, which consumes the substream exactly as the
// closure calls would. Real-valued samplers implement BatchMean and run
// through EstimateMeanBatch and EstimateMeanAdaptiveBatch on a
// []float64 chunk buffer — there is no bitset analog for floats.
//
// # One run body
//
// Every entry point is a thin wrapper over one private run body (run),
// which owns the chunk plan, the rounds, the spans, the counters and the
// stopping rule; bits, mean and histogram runs supply only a per-chunk
// function and a fold in chunk order. A fixed run is a run without a
// target: Config is an AdaptiveConfig whose targets are zero, run in one
// round under mc.chunks then mc.merge spans and reported with Rounds 0
// and no StopReason. A run with a target samples in doubling rounds, one
// mc.round span each, until the target holds or MaxTrials is spent.
package mc

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memreliability/internal/obs"
	"memreliability/internal/rng"
	"memreliability/internal/stats"
)

// ErrBadConfig reports an invalid harness configuration.
var ErrBadConfig = errors.New("mc: bad config")

// chunkSize is the number of trials in one deterministic substream chunk.
// The chunk partition is part of the reproducibility contract: changing
// this constant changes the samples a given (seed, trials) run draws.
const chunkSize = 8192

// Trial is a single randomized experiment returning whether the event of
// interest occurred. Implementations must use only the provided Source for
// randomness and must be safe to call from one goroutine at a time.
// BitsFromTrial adapts one to the harness's BatchTrialBits contract.
type Trial func(src *rng.Source) (success bool, err error)

// TrialLimit bounds a run's trial budget (Config.Trials and
// AdaptiveConfig.MaxTrials). A run allocates its whole chunk plan up
// front, one RNG substream and quota per chunk, so the bound keeps the
// plan at 2^17 chunks, under 10 MB; validation rejects a larger budget
// with ErrBadConfig before anything is allocated. The bound and the
// plan's chunk rounding also fit a 32-bit int.
const TrialLimit = 1 << 30

// Config controls a Monte Carlo run of a fixed number of trials.
type Config struct {
	// Trials is the total number of trials to run, in [1, TrialLimit].
	Trials int
	// Workers is the number of the run's own parallel workers; 0 means
	// GOMAXPROCS. Workers is pure scheduling and never affects results.
	Workers int
	// Helpers, when non-nil, is a slot pool the run shares with other
	// computations: beside its own Workers, the run borrows free slots,
	// each for one chunk at a time, while it has chunks left (see Pool).
	// Like Workers it is pure scheduling; nil borrows nothing.
	Helpers *Pool
	// Seed is the experiment seed; every run with the same Seed, Trials,
	// and trial function produces identical counts at any worker count.
	Seed uint64
}

// fixed returns the run cfg describes: an AdaptiveConfig without a
// target.
func (c Config) fixed() AdaptiveConfig {
	return AdaptiveConfig{MaxTrials: c.Trials, Workers: c.Workers, Helpers: c.Helpers, Seed: c.Seed}
}

// chunkPlan derives the deterministic per-chunk RNG sources and trial
// quotas of a run of the given budget: ⌈trials/chunkSize⌉ chunks, the
// last one short.
func chunkPlan(trials int, seed uint64) (sources []*rng.Source, quotas []int) {
	n := (trials + chunkSize - 1) / chunkSize
	root := rng.New(seed)
	sources = make([]*rng.Source, n)
	quotas = make([]int, n)
	for i := range sources {
		sources[i] = root.Split()
		quotas[i] = chunkSize
	}
	quotas[n-1] = trials - chunkSize*(n-1)
	return sources, quotas
}

// runChunksWith executes fn(chunk, scratch) for every chunk index. The
// run's own workers, worker w starting on chunk w, claim chunks in
// index order until none remain. With a helpers pool, whenever chunks
// are left unclaimed — at the start and each time an own worker claims
// one — a helper goroutine borrows each free slot: it runs one chunk,
// gives the slot back, and carries on only while it can take a free
// slot again, so a caller blocked on the pool waits at most one chunk.
// Every goroutine gets one reusable scratch value from newScratch — the
// allocation point for the batch engine's per-worker buffers, paid once
// per goroutine, never per chunk. Which goroutine runs a chunk never
// matters: callers store results by chunk index and merge them in chunk
// order. The first failure cancels the remaining chunks; the returned
// error prefers a root-cause failure over the cancellations it induced.
func runChunksWith[S any](ctx context.Context, workers int, helpers *Pool, nChunks int, newScratch func() S, fn func(ctx context.Context, chunk int, scratch S) error) error {
	workers = effectiveWorkers(workers, nChunks)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // chunks claimed so far
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	// claim hands out the next chunk, or false once every chunk is
	// claimed or the run has stopped.
	claim := func() (int, bool) {
		if runCtx.Err() != nil {
			return 0, false
		}
		chunk := int(next.Add(1) - 1)
		return chunk, chunk < nChunks
	}
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil || errors.Is(firstErr, context.Canceled) {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	// borrow is a helper: it holds one borrowed slot per chunk.
	borrow := func() {
		defer wg.Done()
		scratch := newScratch()
		for {
			chunk, ok := claim()
			if !ok {
				helpers.Release()
				return
			}
			err := fn(runCtx, chunk, scratch)
			helpers.Release()
			if err != nil {
				fail(err)
				return
			}
			mcHelperChunks.Inc()
			if !helpers.tryAcquire() {
				return
			}
		}
	}
	// recruit starts a helper on each free slot, one per unclaimed chunk.
	recruit := func() {
		for left := nChunks - int(next.Load()); left > 0 && helpers.tryAcquire(); left-- {
			wg.Add(1)
			go borrow()
		}
	}

	next.Store(int64(workers))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			scratch := newScratch()
			for ok := true; ok; chunk, ok = claim() {
				if helpers != nil {
					recruit()
				}
				if err := fn(runCtx, chunk, scratch); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if firstErr == nil && ctx.Err() != nil {
		// The parent context died before any chunk could report it.
		firstErr = ctx.Err()
	}
	return firstErr
}

// wordScratch allocates one worker's reusable bitset chunk buffer.
func wordScratch() []uint64 { return make([]uint64, BitWords(chunkSize)) }

// floatScratch allocates one worker's reusable mean chunk buffer.
func floatScratch() []float64 { return make([]float64, chunkSize) }

// cancelCheckInterval is the cancellation granularity inside a chunk:
// the engine slices each chunk into sub-batches of this many trials and
// checks the context between them, preserving the per-trial era's
// cancellation latency. Sub-slicing is invisible to results — the batch
// contracts (sequential consumption of src) make consecutive sub-slices
// compose into exactly one whole-chunk call. The interval is a multiple
// of WordBits, so bitset sub-batches always start on a word boundary.
const cancelCheckInterval = 1024

// runMeanChunk evaluates one whole chunk through the batch sampler into
// the worker's reusable buffer and folds the observations into the
// chunk's summary, in trial order. Zero allocations per call;
// cancellation granularity as runProbChunk.
func runMeanChunk(ctx context.Context, batch BatchMean, src *rng.Source, out []float64, sum *stats.Summary) error {
	for off := 0; off < len(out); off += cancelCheckInterval {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := off + cancelCheckInterval
		if end > len(out) {
			end = len(out)
		}
		sub := out[off:end]
		if err := batch(src, sub); err != nil {
			return err
		}
		for _, v := range sub {
			sum.Add(v)
		}
	}
	return nil
}

// chunkRun is what one kind of run hands the run body. chunk evaluates
// one chunk of n trials on the chunk's substream into the goroutine's
// reusable scratch and returns the chunk's partial result. fold merges
// partial results into the run's result in chunk order after each round,
// a chunk that did not complete as the zero P. interval, needed only by
// runs with a target, returns the stopping rule's interval and point
// estimate at a confidence level over everything folded so far. what
// names the chunk function in errors ("trial", "sampler").
type chunkRun[S, P any] struct {
	what       string
	newScratch func() S
	chunk      func(ctx context.Context, src *rng.Source, n int, scratch S) (P, error)
	fold       func(part P) error
	interval   func(confidence float64) (lo, hi, estimate float64, err error)
}

// run is the one chunk loop behind every entry point, for a validated
// cfg. It owns the chunk plan, the rounds, the spans, the counters and
// the stopping rule. A run without a target is one round over every
// chunk under an mc.chunks span, folded under an mc.merge span, and
// records mc_trials_per_sec when every chunk completed. A run with a
// target samples in rounds that double its chunk count (nextRound), one
// mc.round span each, and after each round stops once cfg.converged
// holds or the budget is spent. Spans mark these sequential barriers
// only, never chunks, so the chunk loop stays allocation-free and the
// span tree is the same at any worker count. Each round is folded before
// its error is returned, so a failed or canceled run's result holds the
// chunks that completed. Rounds and the stop reason are zero for a run
// without a target.
func run[S, P any](ctx context.Context, cfg AdaptiveConfig, r chunkRun[S, P]) (rounds int, _ StopReason, _ error) {
	sources, quotas := chunkPlan(cfg.MaxTrials, cfg.Seed)
	nChunks := len(sources)
	parts := make([]P, nChunks)
	adaptive := cfg.hasTarget()
	mcRuns.Inc()
	mcRunWorkers.Observe(float64(effectiveWorkers(cfg.Workers, nChunks)))
	parent := obs.SpanFrom(ctx)

	for start := 0; start < nChunks; {
		end := nChunks
		var span, merge *obs.Span
		if adaptive {
			end = nextRound(start, nChunks)
			span = parent.Child("mc.round",
				obs.L("round", strconv.Itoa(rounds)),
				obs.L("chunks", strconv.Itoa(end-start)))
		} else {
			span = parent.Child("mc.chunks",
				obs.L("chunks", strconv.Itoa(nChunks)),
				obs.L("trials", strconv.Itoa(cfg.MaxTrials)))
		}
		began := time.Now()
		runErr := runChunksWith(ctx, cfg.Workers, cfg.Helpers, end-start, r.newScratch,
			func(ctx context.Context, j int, scratch S) error {
				chunk := start + j
				part, err := r.chunk(ctx, sources[chunk], quotas[chunk], scratch)
				if err != nil {
					if err == ctx.Err() {
						return err
					}
					return fmt.Errorf("mc: %s failed in chunk %d: %w", r.what, chunk, err)
				}
				parts[chunk] = part
				mcChunks.Inc()
				mcTrials.Add(int64(quotas[chunk]))
				return nil
			})
		span.End()
		if !adaptive {
			if elapsed := time.Since(began).Seconds(); runErr == nil && elapsed > 0 {
				mcTrialsPerSec.Set(float64(cfg.MaxTrials) / elapsed)
			}
			merge = parent.Child("mc.merge")
		}
		var foldErr error
		for chunk := start; chunk < end && foldErr == nil; chunk++ {
			foldErr = r.fold(parts[chunk])
		}
		merge.End()
		if foldErr != nil {
			return rounds, "", foldErr
		}
		if !adaptive {
			return 0, "", runErr
		}
		rounds++
		mcAdaptiveRounds.Inc()
		if runErr != nil {
			return rounds, "", runErr
		}
		start = end

		lo, hi, estimate, ivErr := r.interval(cfg.Confidence)
		if ivErr != nil {
			return rounds, "", ivErr
		}
		if cfg.converged((hi-lo)/2, estimate) {
			observeStop(StopConverged)
			return rounds, StopConverged, nil
		}
	}
	observeStop(StopBudget)
	return rounds, StopBudget, nil
}

// Result is the outcome of a Monte Carlo run.
type Result struct {
	Proportion stats.Proportion
}

// Estimate returns the point estimate of the event probability.
func (r *Result) Estimate() float64 { return r.Proportion.Estimate() }

// WilsonCI returns the Wilson interval at the given level.
func (r *Result) WilsonCI(level float64) (lo, hi float64, err error) {
	return r.Proportion.WilsonCI(level)
}

// EstimateProbabilityBits runs cfg.Trials trials of the bitset trial in
// parallel and returns the aggregated proportion: EstimateAdaptiveBits
// without a target. Chunks are evaluated whole — one bitset call per
// chunk (sliced only at cancellation checkpoints) on a per-worker
// reusable []uint64 buffer — and successes are counted with
// bits.OnesCount64, so the steady-state loop is free of per-trial call
// overhead and of allocations. The context cancels the run early; a
// canceled run returns ctx.Err() alongside the results of the chunks
// that completed.
func EstimateProbabilityBits(ctx context.Context, cfg Config, batch BatchTrialBits) (*Result, error) {
	res, err := EstimateAdaptiveBits(ctx, cfg.fixed(), batch)
	if res == nil {
		return nil, err
	}
	return &res.Result, err
}

// IntSampler is a randomized experiment producing a non-negative integer
// observation (e.g. a critical-window size).
type IntSampler func(src *rng.Source) (value int, err error)

// EstimateDistribution runs the sampler cfg.Trials times and histograms the
// observations into the given number of buckets (plus overflow). Chunk
// histograms merge in chunk order; a canceled run returns ctx.Err()
// alongside the histogram of the chunks that completed.
func EstimateDistribution(ctx context.Context, cfg Config, buckets int, sample IntSampler) (*stats.Histogram, error) {
	if sample == nil {
		return nil, fmt.Errorf("%w: nil sampler", ErrBadConfig)
	}
	acfg := cfg.fixed()
	if err := acfg.validate(); err != nil {
		return nil, err
	}
	merged, err := stats.NewHistogram(buckets)
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	_, _, err = run(ctx, acfg, chunkRun[struct{}, *stats.Histogram]{
		what:       "sampler",
		newScratch: func() struct{} { return struct{}{} },
		chunk: func(ctx context.Context, src *rng.Source, n int, _ struct{}) (*stats.Histogram, error) {
			h, err := stats.NewHistogram(buckets)
			for i := 0; i < n && err == nil; i++ {
				if i%cancelCheckInterval == 0 && ctx.Err() != nil {
					return nil, ctx.Err()
				}
				var v int
				if v, err = sample(src); err == nil {
					err = h.Observe(v)
				}
			}
			return h, err
		},
		fold: func(h *stats.Histogram) error {
			if h == nil { // the chunk did not complete
				return nil
			}
			return merged.Merge(h)
		},
	})
	return merged, err
}

// BatchMean evaluates len(out) consecutive real-valued samples on src,
// recording the i-th observation in out[i]. It is the real-valued
// counterpart of BatchTrialBits, with the same obligations: consume src
// exactly as len(out) sequential single-sample draws would, so chunk
// sub-slicing never changes results, and tolerate concurrent calls on
// distinct sources.
type BatchMean func(src *rng.Source, out []float64) error

// EstimateMeanBatch runs cfg.Trials samples of the batched sampler in
// parallel and returns summary statistics of the observations:
// EstimateMeanAdaptiveBatch without a target. Each chunk's buffer folds
// into its summary in trial order and chunk summaries merge in chunk
// order. Summary merging is not floating-point associative, so the fixed
// merge order is what makes the result bit-identical at any worker
// count.
func EstimateMeanBatch(ctx context.Context, cfg Config, batch BatchMean) (*stats.Summary, error) {
	res, err := EstimateMeanAdaptiveBatch(ctx, cfg.fixed(), batch)
	if res == nil {
		return nil, err
	}
	return &res.Summary, err
}
