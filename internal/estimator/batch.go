package estimator

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"memreliability/internal/mc"
	"memreliability/internal/obs"
)

// BatchOptions tunes an EstimateBatch run without affecting its results.
type BatchOptions struct {
	// Workers is the total CPU budget, as a pool of that many slots
	// (mc.Pool): at most min(Workers, len) queries run at once, each
	// holding one slot, and their Monte Carlo borrows the slots left
	// free one chunk at a time. 0 means GOMAXPROCS.
	Workers int
	// Timing records per-result wall-clock time (breaks byte-level
	// reproducibility of encoded results).
	Timing bool
	// Progress, when non-nil, receives each result as it completes
	// (completion order, not index order). Calls are serialized.
	Progress func(index int, r Result)
}

// EstimateBatch evaluates the queries concurrently under the options'
// worker budget and returns the results in query order. The budget is
// one slot pool: each query goroutine holds a slot until the feed runs
// dry, then gives it back, so the last queries in flight borrow it for
// their remaining chunks (a single query gets the whole budget). Each
// query's substream seed is derived from its own Seed with the
// canonical DeriveSeeds derivation, so every result is identical to what
// a lone Estimate of that query returns — regardless of batch size,
// worker budget, or completion order. The first failure cancels the
// remaining queries.
func EstimateBatch(ctx context.Context, queries []Query, opts BatchOptions) ([]Result, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadQuery)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("%w: workers=%d", ErrBadQuery, opts.Workers)
	}

	// Normalize and validate every query up front: a batch with one bad
	// query fails before any compute is spent.
	norm := make([]Query, len(queries))
	for i, q := range queries {
		norm[i] = q.Normalized()
		if err := norm[i].Validate(); err != nil {
			return nil, fmt.Errorf("estimator: batch query %d: %w", i, err)
		}
	}

	budget := opts.Workers
	if budget == 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	pool := mc.NewPool(budget)
	workers := min(budget, len(norm))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(norm))
	errs := make([]error, workers)
	jobs := make(chan int)
	var progressMu sync.Mutex

	// Per-query child spans are created in the sequential feed loop below
	// — never inside the workers — so span order is index order and the
	// exported trace tree is deterministic at any worker count.
	parent := obs.SpanFrom(ctx)
	spans := make([]*obs.Span, len(norm))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if pool.Acquire(runCtx) != nil {
				return
			}
			defer pool.Release()
			for idx := range jobs {
				q := norm[idx]
				res, err := Run(obs.WithSpan(runCtx, spans[idx]), q, DeriveSeeds(q.Seed, 1)[0],
					Exec{Workers: 1, Helpers: pool, Timing: opts.Timing})
				spans[idx].End()
				if err != nil {
					errs[w] = fmt.Errorf("estimator: batch query %d: %w", idx, err)
					cancel()
					return
				}
				results[idx] = res
				if opts.Progress != nil {
					progressMu.Lock()
					opts.Progress(idx, res)
					progressMu.Unlock()
				}
			}
		}(w)
	}

feed:
	for idx := range norm {
		spans[idx] = parent.Child("estimate",
			obs.L("index", strconv.Itoa(idx)),
			obs.L("kind", string(norm[idx].Kind)))
		select {
		case jobs <- idx:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Prefer a root-cause failure over the cancellations it induced in
	// sibling workers.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || errors.Is(firstErr, context.Canceled) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	return results, nil
}
