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

	results := make([]Result, len(norm))
	var progressMu sync.Mutex
	err := FanOut(ctx, opts.Workers, len(norm),
		func(parent *obs.Span, idx int) *obs.Span {
			return parent.Child("estimate",
				obs.L("index", strconv.Itoa(idx)),
				obs.L("kind", string(norm[idx].Kind)))
		},
		func(ctx context.Context, idx int, pool *mc.Pool) error {
			q := norm[idx]
			res, err := Run(ctx, q, DeriveSeeds(q.Seed, 1)[0],
				Exec{Workers: 1, Helpers: pool, Timing: opts.Timing})
			if err != nil {
				return fmt.Errorf("estimator: batch query %d: %w", idx, err)
			}
			results[idx] = res
			if opts.Progress != nil {
				progressMu.Lock()
				opts.Progress(idx, res)
				progressMu.Unlock()
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	return results, nil
}

// FanOut runs item for each index in [0, n) and returns when all have
// finished. The budget (0 means GOMAXPROCS) is one slot pool (mc.Pool):
// min(budget, n) goroutines each hold a slot while the feed lasts and
// give it back when it runs dry, and item receives the pool so its
// Monte Carlo can borrow the free slots (Exec{Workers: 1, Helpers:
// pool}). span makes each item's span beneath the context's span; spans
// are made in the sequential feed, never in the workers, so their order
// is index order at any budget. The first failure cancels the remaining
// items, and FanOut returns it in preference to the cancellations it
// caused. A canceled ctx with no failing item returns nil: callers check
// ctx.Err() themselves.
func FanOut(ctx context.Context, budget, n int, span func(parent *obs.Span, idx int) *obs.Span,
	item func(ctx context.Context, idx int, pool *mc.Pool) error) error {
	if budget == 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	pool := mc.NewPool(budget)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	spans := make([]*obs.Span, n)
	for range min(budget, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if pool.Acquire(runCtx) != nil {
				return
			}
			defer pool.Release()
			for idx := range jobs {
				err := item(obs.WithSpan(runCtx, spans[idx]), idx, pool)
				spans[idx].End()
				if err != nil {
					errMu.Lock()
					if firstErr == nil || errors.Is(firstErr, context.Canceled) {
						firstErr = err
					}
					errMu.Unlock()
					cancel()
					return
				}
			}
		}()
	}

	parent := obs.SpanFrom(ctx)
feed:
	for idx := range n {
		spans[idx] = span(parent, idx)
		select {
		case jobs <- idx:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
