package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"memreliability/internal/estimator"
	"memreliability/internal/store"
	"memreliability/internal/sweep"
)

// ErrBadConfig reports an invalid coordinator configuration.
var ErrBadConfig = errors.New("cluster: bad config")

// ErrNoWorkers reports a sweep stranded with no surviving workers.
var ErrNoWorkers = errors.New("cluster: no surviving workers")

// errPermanent marks a worker rejection that must not be retried on a
// survivor: the worker judged the cell itself invalid (HTTP 400), so
// every worker would reject it identically.
var errPermanent = errors.New("cluster: permanent rejection")

// Config configures a Coordinator.
type Config struct {
	// Workers are the fleet's worker base URLs (e.g.
	// "http://10.0.0.7:8081"); at least one is required. Cells are
	// sharded across them by canonical cell key, and a worker whose
	// shard runs dry takes queued cells from the others.
	Workers []string
	// Store, when non-nil, is the shared content-addressed result
	// store: cells present in it are merged without dispatch, and every
	// computed cell is written through — so coordinator restarts and
	// fleet siblings reuse warm results instead of re-running
	// estimators.
	Store *store.Store
	// CellTimeout bounds each dispatch round trip (the whole batch); a
	// dispatch that exceeds it counts as a worker failure and its cells
	// are retried on a survivor. 0 means 60s.
	CellTimeout time.Duration
	// MaxRetries bounds how many failed dispatch attempts one cell may
	// accumulate (across workers) before the sweep fails. 0 means 3.
	MaxRetries int
	// MaxBatch bounds how many queued cells ride one worker dispatch.
	// The wire format has carried batches since PR 7; batching amortizes
	// the HTTP round trip and JSON framing over up to MaxBatch cells
	// without affecting artifacts (results are deterministic per cell).
	// 0 means 8.
	MaxBatch int
	// Client is the HTTP client used for dispatch; nil builds a
	// dedicated client (per-request timeouts come from CellTimeout).
	Client *http.Client
}

// withDefaults returns the config with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.CellTimeout == 0 {
		c.CellTimeout = 60 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Coordinator shards sweep cells across a worker fleet and merges the
// results deterministically. It is safe for concurrent RunSweep calls.
type Coordinator struct {
	cfg Config
	wm  []*workerMetrics
}

// New validates the config and returns a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("%w: no workers", ErrBadConfig)
	}
	for _, u := range cfg.Workers {
		if u == "" {
			return nil, fmt.Errorf("%w: empty worker URL", ErrBadConfig)
		}
	}
	if cfg.CellTimeout < 0 || cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("%w: negative timeout or retry bound", ErrBadConfig)
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("%w: negative batch bound", ErrBadConfig)
	}
	cfg = cfg.withDefaults()
	wm := make([]*workerMetrics, len(cfg.Workers))
	for i := range wm {
		wm[i] = metricsForWorker(i)
	}
	return &Coordinator{cfg: cfg, wm: wm}, nil
}

// task is one cell awaiting distributed execution.
type task struct {
	idx      int
	query    estimator.Query
	seed     uint64
	key      string
	attempts int // failed dispatch attempts so far
}

// dispatchState is the shared scheduling state of one RunSweep: per-
// worker shard queues, liveness, and completion bookkeeping, all under
// one mutex with a cond for queue handoff. Scheduling state only —
// results are deterministic in the spec regardless of what happens
// here.
type dispatchState struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]*task
	alive  []bool
	aliveN int
	queued int // cells sitting in shard queues
	pend   int // cells not yet completed
	err    error
	// writes tracks the batches whose results are still being written
	// through the store and delivered to the sink.
	writes sync.WaitGroup
}

// takeLocked removes and returns worker w's next batch of at most limit
// cells; the mutex must be held and some queue must hold a cell. The
// batch comes from the head of w's own shard queue or, once that is
// empty, from the tail of the longest queue, taking at most half of it:
// a worker whose shard runs dry shares the rest of the sweep instead of
// idling, so a sweep's wall time follows its total work rather than how
// the cell keys happen to hash.
func (st *dispatchState) takeLocked(w, limit int) []*task {
	v := w
	if len(st.queues[w]) == 0 {
		for i, q := range st.queues {
			if len(q) > len(st.queues[v]) {
				v = i
			}
		}
	}
	q := st.queues[v]
	k := min(limit, len(q))
	var batch []*task
	if v == w {
		batch, st.queues[v] = q[:k:k], q[k:]
	} else {
		k = min(k, (len(q)+1)/2)
		// Capped, so that a later append to the owner's queue cannot
		// write over the taken cells.
		n := len(q) - k
		batch, st.queues[v] = q[n:], q[:n:n]
	}
	st.queued -= len(batch)
	queueDepthGauge.Set(float64(st.queued))
	return batch
}

// failLocked records the sweep's first fatal error; the mutex must be
// held.
func (st *dispatchState) failLocked(err error) {
	if st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
}

// shardIndex maps a canonical cell key to its home worker: the first 8
// bytes of the key's SHA-256 modulo the fleet size — the same hash
// family that content-addresses the key on disk, so placement is a
// pure function of the cell's identity.
func shardIndex(key string, n int) int {
	sum := sha256.Sum256([]byte(key))
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(n))
}

// RunSweep runs the spec's grid on the worker fleet and returns the
// merged artifact — byte-identical to single-node sweep.Run (and hence
// to memsweep -o) for the same spec, at any fleet size, under worker
// loss, and across store-warm restarts:
//
//  1. Normalize, validate, and expand the spec, deriving per-cell
//     substream seeds — the exact single-node pipeline.
//  2. Serve every cell already in the content-addressed store without
//     dispatch (cross-node, cross-restart dedup).
//  3. Shard the remaining cells across workers by canonical cell key
//     and dispatch them concurrently, up to MaxBatch cells per
//     bounded-timeout request; a worker whose shard runs dry takes
//     cells from the longest queue. A failed worker is retired and its
//     cells move to survivors, each failed attempt counting against
//     every attempted cell's bounded retry budget.
//  4. Write computed results through the store while the next batches
//     run, and merge all cells in canonical cell-index order once every
//     write has finished.
//
// opts follows sweep.Options: Sink receives each completed cell
// (completion order, serialized); Timing is rejected because remote
// timing would break the artifact byte-identity contract.
func (c *Coordinator) RunSweep(ctx context.Context, spec sweep.Spec, opts sweep.Options) (*sweep.Artifact, error) {
	if opts.Timing {
		return nil, fmt.Errorf("%w: per-cell timing is not supported in distributed mode", ErrBadConfig)
	}
	norm := spec.Normalized()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	sweepsTotal.Inc()
	cells := norm.Expand()
	seeds := estimator.DeriveSeeds(norm.Seed, len(cells))
	results := make([]sweep.CellResult, len(cells))

	var sinkMu sync.Mutex
	emit := func(res sweep.CellResult) {
		if opts.Sink == nil {
			return
		}
		sinkMu.Lock()
		opts.Sink(res)
		sinkMu.Unlock()
	}

	// Store pass: cells with a warm content-addressed result merge
	// immediately; only the rest are dispatched.
	var pending []*task
	for i, cell := range cells {
		q := norm.Query(cell)
		key, err := CellKey(q, seeds[i])
		if err != nil {
			return nil, err
		}
		if c.cfg.Store != nil {
			if payload, ok := c.cfg.Store.Get(key); ok {
				var res estimator.Result
				if json.Unmarshal(payload, &res) == nil {
					storeDedup.Inc()
					results[i] = sweep.CellResultOf(cell, res)
					emit(results[i])
					continue
				}
			}
		}
		pending = append(pending, &task{idx: i, query: q, seed: seeds[i], key: key})
	}

	if len(pending) > 0 {
		if err := c.dispatchAll(ctx, pending, cells, results, emit); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	// Merge in canonical cell-index order; the echo is the spec's
	// identity, as in the single-node engine, so the artifact bytes
	// match memsweep -o.
	return &sweep.Artifact{
		SchemaVersion: sweep.ArtifactVersion,
		Spec:          spec.Identity(),
		Cells:         results,
	}, nil
}

// dispatchAll runs the pending cells on the fleet: one goroutine per
// configured worker consuming its shard queue and then the others',
// with failure handling that retires the failed worker and moves its
// cells to survivors. It returns once every write-through has finished.
func (c *Coordinator) dispatchAll(ctx context.Context, pending []*task, cells []sweep.Cell, results []sweep.CellResult, emit func(sweep.CellResult)) error {
	n := len(c.cfg.Workers)
	st := &dispatchState{
		queues: make([][]*task, n),
		alive:  make([]bool, n),
		aliveN: n,
		queued: len(pending),
		pend:   len(pending),
	}
	st.cond = sync.NewCond(&st.mu)
	for i := range st.alive {
		st.alive[i] = true
	}
	for _, t := range pending {
		w := shardIndex(t.key, n)
		st.queues[w] = append(st.queues[w], t)
	}
	queueDepthGauge.Set(float64(st.queued))

	// Wake all waiters when the parent context dies, so cancellation
	// cannot strand a worker loop in cond.Wait.
	loopCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-loopCtx.Done()
		st.mu.Lock()
		st.failLocked(loopCtx.Err())
		st.mu.Unlock()
	}()

	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.workerLoop(loopCtx, st, w, cells, results, emit)
		}(w)
	}
	wg.Wait()
	st.writes.Wait()
	queueDepthGauge.Set(0)

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pend > 0 && st.err == nil {
		// Unreachable by construction (loops only exit on done or
		// error), but a stranded cell must fail loudly, not merge as a
		// zero result.
		st.err = fmt.Errorf("cluster: %d cells never completed", st.pend)
	}
	if st.err != nil && ctx.Err() != nil {
		// Prefer the caller's cancellation over the failures it induced.
		return fmt.Errorf("cluster: %w", ctx.Err())
	}
	return st.err
}

// workerLoop dispatches worker w's batches (see takeLocked) until the
// sweep completes, fails, or the worker is retired. Each iteration
// takes up to MaxBatch queued cells and dispatches them as one request.
func (c *Coordinator) workerLoop(ctx context.Context, st *dispatchState, w int, cells []sweep.Cell, results []sweep.CellResult, emit func(sweep.CellResult)) {
	for {
		st.mu.Lock()
		for st.err == nil && st.pend > 0 && st.alive[w] && st.queued == 0 {
			st.cond.Wait()
		}
		if st.err != nil || st.pend == 0 || !st.alive[w] {
			st.mu.Unlock()
			return
		}
		batch := st.takeLocked(w, c.cfg.MaxBatch)
		st.mu.Unlock()

		res, err := c.dispatchBatch(ctx, w, batch)
		if err != nil {
			st.mu.Lock()
			c.failBatchLocked(ctx, st, w, batch, err)
			st.mu.Unlock()
			continue // the loop re-checks alive[w] and exits if retired
		}

		st.mu.Lock()
		for bi, t := range batch {
			results[t.idx] = sweep.CellResultOf(cells[t.idx], res[bi])
		}
		st.pend -= len(batch)
		st.writes.Add(1)
		st.cond.Broadcast()
		st.mu.Unlock()

		// Write-through runs beside the next dispatch, so a slow disk
		// does not hold the worker idle; persistence is best-effort (the
		// store counts its own put errors) and never gates the sweep.
		// Each cell reaches the sink once its write has finished.
		go func() {
			defer st.writes.Done()
			for bi, t := range batch {
				if c.cfg.Store != nil {
					if payload, err := json.Marshal(res[bi]); err == nil {
						c.cfg.Store.Put(t.key, payload) //nolint:errcheck // best-effort tier
					}
				}
				emit(results[t.idx])
			}
		}()
	}
}

// failBatchLocked handles one dispatch failure; the state mutex must be
// held. Cancellation and permanent rejections fail the sweep; any
// other failure retires worker w and moves its cells — the attempted
// batch and everything still queued on it — to surviving workers. Each
// attempted cell's attempt count is bounded by MaxRetries; queued
// cells move without charge (they were never attempted).
func (c *Coordinator) failBatchLocked(ctx context.Context, st *dispatchState, w int, batch []*task, err error) {
	if ctx.Err() != nil {
		st.failLocked(ctx.Err())
		return
	}
	if errors.Is(err, errPermanent) {
		st.failLocked(err)
		return
	}
	c.wm[w].retries.Add(int64(len(batch)))
	for _, t := range batch {
		t.attempts++
		if t.attempts > c.cfg.MaxRetries {
			st.failLocked(fmt.Errorf("cluster: cell %d failed %d times, retry budget exhausted: %w",
				t.idx, t.attempts, err))
			return
		}
	}
	if st.alive[w] {
		st.alive[w] = false
		st.aliveN--
	}
	if st.aliveN == 0 {
		st.failLocked(fmt.Errorf("%w: cell %d: %v", ErrNoWorkers, batch[0].idx, err))
		return
	}
	orphans := append(append([]*task(nil), batch...), st.queues[w]...)
	st.queues[w] = nil
	for _, o := range orphans {
		tgt := c.nextAliveLocked(st, o.key)
		st.queues[tgt] = append(st.queues[tgt], o)
	}
	st.queued += len(batch) // the batch re-enters queues; the others never left
	queueDepthGauge.Set(float64(st.queued))
	st.cond.Broadcast()
}

// nextAliveLocked picks the surviving worker for a reassigned cell:
// the first alive worker at or after the cell's home shard, scanning
// the ring — deterministic in the key and the liveness set.
func (c *Coordinator) nextAliveLocked(st *dispatchState, key string) int {
	n := len(c.cfg.Workers)
	home := shardIndex(key, n)
	for i := 0; i < n; i++ {
		w := (home + i) % n
		if st.alive[w] {
			return w
		}
	}
	return home // unreachable: callers guarantee aliveN > 0
}

// dispatchBatch sends one batch of cells to worker w and decodes the
// per-cell results in batch order, bounded by the dispatch timeout.
func (c *Coordinator) dispatchBatch(ctx context.Context, w int, batch []*task) ([]estimator.Result, error) {
	m := c.wm[w]
	m.dispatch.Add(int64(len(batch)))
	start := time.Now()
	res, err := c.postCells(ctx, c.cfg.Workers[w], batch)
	m.latency.Observe(time.Since(start).Seconds())
	return res, err
}

// postCells performs the HTTP round trip for one batch of cells. The
// returned slice is aligned with batch: workers echo grid indices, so
// responses are matched by index, not ordering.
func (c *Coordinator) postCells(ctx context.Context, workerURL string, batch []*task) ([]estimator.Result, error) {
	wire := cellsRequest{Cells: make([]cellTask, len(batch))}
	for i, t := range batch {
		wire.Cells[i] = cellTask{Index: t.idx, Query: t.query, Seed: t.seed}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, fmt.Errorf("%w: encode cell %d: %v", errPermanent, batch[0].idx, err)
	}
	reqCtx, cancel := context.WithTimeout(ctx, c.cfg.CellTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, workerURL+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: cell %d: %v", errPermanent, batch[0].idx, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: cell %d: %w", batch[0].idx, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxCellBatchBytes))
	if err != nil {
		return nil, fmt.Errorf("cluster: cell %d: %w", batch[0].idx, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusBadRequest:
		// The worker validated with the canonical rules; every other
		// worker would reject identically, so retrying is pointless.
		return nil, fmt.Errorf("%w: cell %d: worker says %s", errPermanent, batch[0].idx, strings.TrimSpace(string(data)))
	default:
		return nil, fmt.Errorf("cluster: cell %d: worker status %d: %s", batch[0].idx, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var out cellsResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("cluster: cell %d: decode response: %w", batch[0].idx, err)
	}
	if len(out.Results) != len(batch) {
		return nil, fmt.Errorf("cluster: batch of %d cells: malformed response (%d results)", len(batch), len(out.Results))
	}
	byIdx := make(map[int]int, len(out.Results))
	for i, r := range out.Results {
		byIdx[r.Index] = i
	}
	results := make([]estimator.Result, len(batch))
	for i, t := range batch {
		j, ok := byIdx[t.idx]
		if !ok {
			return nil, fmt.Errorf("cluster: cell %d: missing from batch response", t.idx)
		}
		results[i] = out.Results[j].Result
	}
	return results, nil
}
