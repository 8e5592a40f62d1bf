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

// Config controls a Monte Carlo run.
type Config struct {
	// Trials is the total number of trials to run. Must be positive.
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

func (c Config) validate() error {
	if c.Trials <= 0 {
		return fmt.Errorf("%w: trials=%d", ErrBadConfig, c.Trials)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: workers=%d", ErrBadConfig, c.Workers)
	}
	return nil
}

// chunkPlan derives the deterministic per-chunk RNG sources and trial
// quotas for a run: ⌈trials/chunkSize⌉ chunks, the last one short.
func chunkPlan(cfg Config) (sources []*rng.Source, quotas []int) {
	n := (cfg.Trials + chunkSize - 1) / chunkSize
	root := rng.New(cfg.Seed)
	sources = make([]*rng.Source, n)
	quotas = make([]int, n)
	for i := range sources {
		sources[i] = root.Split()
		quotas[i] = chunkSize
	}
	quotas[n-1] = cfg.Trials - chunkSize*(n-1)
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

// runChunks is runChunksWith without per-worker scratch.
func runChunks(ctx context.Context, workers int, helpers *Pool, nChunks int, fn func(ctx context.Context, chunk int) error) error {
	return runChunksWith(ctx, workers, helpers, nChunks,
		func() struct{} { return struct{}{} },
		func(ctx context.Context, chunk int, _ struct{}) error { return fn(ctx, chunk) })
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
// parallel and returns the aggregated proportion. Chunks are evaluated
// whole — one bitset call per chunk (sliced only at cancellation
// checkpoints) on a per-worker reusable []uint64 buffer — and successes
// are counted with bits.OnesCount64, so the steady-state loop is free of
// per-trial call overhead and of allocations. The context cancels the
// run early; a canceled run returns ctx.Err() alongside the results of
// the chunks that completed.
func EstimateProbabilityBits(ctx context.Context, cfg Config, batch BatchTrialBits) (*Result, error) {
	if batch == nil {
		return nil, fmt.Errorf("%w: nil trial", ErrBadConfig)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sources, quotas := chunkPlan(cfg)
	successes := make([]int, len(sources))
	trialsRun := make([]int, len(sources))

	mcRuns.Inc()
	mcRunWorkers.Observe(float64(effectiveWorkers(cfg.Workers, len(sources))))
	start := time.Now()
	// Spans mark the run's sequential barriers only — one for the whole
	// chunk sweep, one for the in-order merge — never per chunk, so the
	// chunk loop itself stays allocation-free.
	span := obs.SpanFrom(ctx).Child("mc.chunks",
		obs.L("chunks", strconv.Itoa(len(sources))),
		obs.L("trials", strconv.Itoa(cfg.Trials)))

	runErr := runChunksWith(ctx, cfg.Workers, cfg.Helpers, len(sources), wordScratch,
		func(ctx context.Context, chunk int, words []uint64) error {
			n, err := runProbChunk(ctx, batch, sources[chunk], words, quotas[chunk])
			if err != nil {
				if err == ctx.Err() {
					return err
				}
				return fmt.Errorf("mc: trial failed in chunk %d: %w", chunk, err)
			}
			successes[chunk] = n
			trialsRun[chunk] = quotas[chunk]
			mcChunks.Inc()
			mcTrials.Add(int64(quotas[chunk]))
			return nil
		})
	span.End()
	if elapsed := time.Since(start).Seconds(); runErr == nil && elapsed > 0 {
		mcTrialsPerSec.Set(float64(cfg.Trials) / elapsed)
	}

	merge := obs.SpanFrom(ctx).Child("mc.merge")
	result := &Result{}
	for chunk := range sources {
		if err := result.Proportion.AddCounts(successes[chunk], trialsRun[chunk]); err != nil {
			merge.End()
			return nil, err
		}
	}
	merge.End()
	if runErr != nil {
		return result, runErr
	}
	return result, nil
}

// IntSampler is a randomized experiment producing a non-negative integer
// observation (e.g. a critical-window size).
type IntSampler func(src *rng.Source) (value int, err error)

// EstimateDistribution runs the sampler cfg.Trials times and histograms the
// observations into the given number of buckets (plus overflow).
func EstimateDistribution(ctx context.Context, cfg Config, buckets int, sample IntSampler) (*stats.Histogram, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sample == nil {
		return nil, fmt.Errorf("%w: nil sampler", ErrBadConfig)
	}
	sources, quotas := chunkPlan(cfg)
	hists := make([]*stats.Histogram, len(sources))
	for chunk := range hists {
		h, err := stats.NewHistogram(buckets)
		if err != nil {
			return nil, fmt.Errorf("mc: %w", err)
		}
		hists[chunk] = h
	}

	err := runChunks(ctx, cfg.Workers, cfg.Helpers, len(sources), func(ctx context.Context, chunk int) error {
		src := sources[chunk]
		for i := 0; i < quotas[chunk]; i++ {
			if i%1024 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			v, err := sample(src)
			if err != nil {
				return fmt.Errorf("mc: sampler failed in chunk %d: %w", chunk, err)
			}
			if err := hists[chunk].Observe(v); err != nil {
				return fmt.Errorf("mc: chunk %d: %w", chunk, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	merged, err := stats.NewHistogram(buckets)
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	for _, h := range hists {
		for b := 0; b < buckets; b++ {
			for i := 0; i < h.Count(b); i++ {
				if err := merged.Observe(b); err != nil {
					return nil, fmt.Errorf("mc: merge: %w", err)
				}
			}
		}
		for i := 0; i < h.Overflow(); i++ {
			if err := merged.Observe(buckets); err != nil {
				return nil, fmt.Errorf("mc: merge: %w", err)
			}
		}
	}
	return merged, nil
}

// BatchMean evaluates len(out) consecutive real-valued samples on src,
// recording the i-th observation in out[i]. It is the real-valued
// counterpart of BatchTrialBits, with the same obligations: consume src
// exactly as len(out) sequential single-sample draws would, so chunk
// sub-slicing never changes results, and tolerate concurrent calls on
// distinct sources.
type BatchMean func(src *rng.Source, out []float64) error

// EstimateMeanBatch runs cfg.Trials samples of the batched sampler in
// parallel and returns summary statistics of the observations, folding
// each chunk's buffer into its summary in trial order and merging chunk
// summaries in chunk order. Summary merging is not floating-point
// associative, so the fixed merge order is what makes the result
// bit-identical at any worker count.
func EstimateMeanBatch(ctx context.Context, cfg Config, batch BatchMean) (*stats.Summary, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if batch == nil {
		return nil, fmt.Errorf("%w: nil sampler", ErrBadConfig)
	}
	sources, quotas := chunkPlan(cfg)
	sums := make([]stats.Summary, len(sources))

	mcRuns.Inc()
	mcRunWorkers.Observe(float64(effectiveWorkers(cfg.Workers, len(sources))))
	err := runChunksWith(ctx, cfg.Workers, cfg.Helpers, len(sources), floatScratch,
		func(ctx context.Context, chunk int, out []float64) error {
			if err := runMeanChunk(ctx, batch, sources[chunk], out[:quotas[chunk]], &sums[chunk]); err != nil {
				if err == ctx.Err() {
					return err
				}
				return fmt.Errorf("mc: sampler failed in chunk %d: %w", chunk, err)
			}
			mcChunks.Inc()
			mcTrials.Add(int64(quotas[chunk]))
			return nil
		})
	if err != nil {
		return nil, err
	}

	var merged stats.Summary
	for _, s := range sums {
		merged = stats.MergeSummaries(merged, s)
	}
	return &merged, nil
}
