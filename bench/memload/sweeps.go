package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"memreliability/internal/cluster"
	"memreliability/internal/estimator"
	"memreliability/internal/rng"
	"memreliability/internal/shift"
	"memreliability/internal/store"
	"memreliability/internal/sweep"
)

// gridRuns is what both sweep workloads share. Each pass sweeps the
// Theorem 6.3 grid, SC/TSO/PSO/WO × n ∈ {2,3,4,6,8} × m ∈ {16,48} ×
// {exact, windowdist, hybrid, mc} at 8192 trials: 128 cells, small
// exact-DP cells beside MC cells in one pool. Every pass sweeps it under
// a spec seed of its own drawn from the workload seed: the coordinator
// shards cells by a hash of their seeded keys, so one seed would fix one
// shard balance for a whole run. The cells of a sweep are its ops, each
// timed from the sweep's start to the cell's delivery to the sink.
type gridRuns struct {
	e       *env
	tr      *tracer
	base    sweep.Spec
	src     *rng.Source
	specs   []sweep.Spec // by pass
	first   map[int][]byte
	changed []string
	replays []replayJob
	skipped map[string]bool
}

func newGridRuns(e *env, tr *tracer) *gridRuns {
	base := sweep.DefaultSpec()
	base.Models, base.Threads, base.PrefixLens, base.Trials = allModels[:4], []int{2, 3, 4, 6, 8}, []int{16, 48}, 8192
	if e.short {
		base.Models, base.Threads, base.PrefixLens, base.Trials = allModels[:2], []int{2, 3}, []int{16}, 256
	}
	base.Estimators = []sweep.Kind{sweep.Exact, sweep.WindowDist, sweep.Hybrid, sweep.FullMC}
	base.Workers = e.w
	return &gridRuns{e: e, tr: tr, base: base, src: rng.New(e.seed), first: map[int][]byte{}}
}

// nextSpec returns the next pass's index and grid.
func (g *gridRuns) nextSpec() (int, sweep.Spec) {
	spec := g.base
	spec.Seed = g.src.Uint64()
	g.specs = append(g.specs, spec)
	return len(g.specs) - 1, spec
}

// timed runs one sweep as a pass and returns its artifact (nil when it
// failed) and wall time: run sweeps with the options it is given, whose
// sink records every cell as an op. A failed sweep is one failed op.
func timed(rec *recorder, run func(sweep.Options) (*sweep.Artifact, error)) (*sweep.Artifact, float64) {
	start := time.Now()
	art, err := run(sweep.Options{Sink: func(sweep.CellResult) {
		rec.add(sample{ms: sinceMS(start), ok: true})
	}})
	ms := sinceMS(start)
	if err != nil {
		rec.add(sample{ms: ms})
		return nil, ms
	}
	return art, ms
}

// record holds spec i's artifact to its first one's bytes, or keeps it
// as those bytes.
func (g *gridRuns) record(i int, art *sweep.Artifact, what string) error {
	var b bytes.Buffer
	if err := art.EncodeJSON(&b); err != nil {
		return err
	}
	switch first, ok := g.first[i]; {
	case !ok:
		g.first[i] = b.Bytes()
	case !bytes.Equal(first, b.Bytes()):
		g.changed = append(g.changed, fmt.Sprintf("%s artifact of grid %d differs from its first sweep's", what, i))
	}
	return nil
}

// recordPass is record for a pass's sweep, which a traced pass also
// replays: every mc cell on the table kernel and every hybrid cell on
// the product kernel, each on the cell's own substream. It notes the
// skipped cells, which the cell-time metrics leave out.
func (g *gridRuns) recordPass(i int, art *sweep.Artifact, what string) error {
	if err := g.record(i, art, what); err != nil || g.tr == nil {
		return err
	}
	norm := g.specs[i].Normalized()
	seeds := estimator.DeriveSeeds(norm.Seed, len(art.Cells))
	g.skipped = map[string]bool{}
	for k, c := range art.Cells {
		if c.Skipped {
			g.skipped[strconv.Itoa(c.Index)] = true
		}
		if c.Skipped || (c.Estimator != sweep.FullMC && c.Estimator != sweep.Hybrid) {
			continue
		}
		q := norm.Query(c.Cell)
		cfg, err := coreConfig(q)
		if err != nil {
			return err
		}
		j := replayJob{engine: "table", query: q, cfg: cfg, seed: seeds[k], trials: q.Trials}
		if c.Estimator == sweep.FullMC {
			j.want = func(o replayOut) bool { return o.estimate == c.Estimate }
		} else {
			j.engine = "product"
			j.want = func(o replayOut) bool {
				prA, err := shift.Theorem61(c.Threads, o.mean)
				return err == nil && prA == c.Estimate && o.stdErr == c.StdErr
			}
		}
		g.replays = append(g.replays, j)
	}
	return nil
}

// warmGrid is the set-up sweep: the grid at 512 trials under a fixed
// seed, so set-up time does not hang on the shard balance a seed gives.
func (g *gridRuns) warmGrid() sweep.Spec {
	spec := g.base
	spec.Trials, spec.Seed = min(spec.Trials, 512), 1
	return spec
}

// sweepInst is sweep-local: each pass is sweep.Run of a grid with the
// whole worker budget.
type sweepInst struct{ *gridRuns }

func setupSweepLocal(ctx context.Context, e *env, tr *tracer) (instance, error) {
	s := sweepInst{newGridRuns(e, tr)}
	if _, err := sweep.Run(ctx, s.warmGrid(), sweep.Options{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s sweepInst) pass(ctx context.Context, rec *recorder) error {
	i, spec := s.nextSpec()
	art, _ := timed(rec, func(opts sweep.Options) (art *sweep.Artifact, err error) {
		err = s.tr.call(ctx, s.tr.newOp(), 0, "sweep.Run", "sweep", nil, func(ctx context.Context, _ int) error {
			art, err = sweep.Run(ctx, spec, opts)
			return err
		})
		return art, err
	})
	if art == nil {
		return nil
	}
	return s.recordPass(i, art, "sweep")
}

// check sweeps the first grid again on a single worker, which must give
// the same bytes.
func (s sweepInst) check(ctx context.Context) []string {
	var bad []string
	spec := s.specs[0]
	spec.Workers = 1
	art, err := sweep.Run(ctx, spec, sweep.Options{})
	if err == nil {
		err = s.record(0, art, "single-worker sweep")
	}
	if err != nil {
		bad = append(bad, fmt.Sprintf("single-worker sweep: %v", err))
	}
	return append(bad, s.changed...)
}

func (s sweepInst) traced(context.Context) (tracedData, error) {
	return tracedData{replays: s.replays, skipped: s.skipped}, nil
}

func (s sweepInst) close() {}

// clusterInst is sweep-cluster: each pass sweeps a grid through a
// coordinator over two loopback workers with a fresh content-addressed
// store, so every cell is dispatched and written through.
type clusterInst struct {
	*gridRuns
	workers []*httptest.Server
	urls    []string
	client  *http.Client
	work    string
	stores  []*store.Store // by pass
	// op and parent place the workers' spans under the sweep in flight;
	// sweeps run one at a time.
	op, parent atomic.Int64
	// cold, warm and local are the times of cold-store sweeps, of sweeps
	// answered from a warm store, and of sweep.Run on the same grid.
	cold, warm, local []float64
}

func setupSweepCluster(ctx context.Context, e *env, tr *tracer) (instance, error) {
	s := &clusterInst{gridRuns: newGridRuns(e, tr)}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(e.dir, "cluster-")
	if err != nil {
		return nil, err
	}
	s.work = work
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.w, MaxIdleConnsPerHost: e.w}}
	for i := 0; i < 2; i++ {
		// The two workers split the budget; each runs its cells one at a time.
		var h http.Handler = cluster.NewWorker(cluster.WorkerConfig{Workers: max(1, e.w/2)})
		if tr != nil {
			h = tr.wrap(h, "cluster.worker", "cluster", func(*http.Request) (int, int) {
				return int(s.op.Load()), int(s.parent.Load())
			}, nil)
		}
		ts := httptest.NewServer(h)
		s.workers = append(s.workers, ts)
		s.urls = append(s.urls, ts.URL)
	}
	if _, err := s.sweep(ctx, nil, s.warmGrid(), sweep.Options{}); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// sweep runs a spec through a coordinator over the workers.
func (s *clusterInst) sweep(ctx context.Context, st *store.Store, spec sweep.Spec, opts sweep.Options) (*sweep.Artifact, error) {
	coord, err := cluster.New(cluster.Config{Workers: s.urls, Store: st, Client: s.client})
	if err != nil {
		return nil, err
	}
	return coord.RunSweep(ctx, spec, opts)
}

func (s *clusterInst) pass(ctx context.Context, rec *recorder) error {
	i, spec := s.nextSpec()
	st, err := store.Open(filepath.Join(s.work, strconv.Itoa(i)))
	if err != nil {
		return err
	}
	s.stores = append(s.stores, st)
	op := s.tr.newOp()
	art, ms := timed(rec, func(opts sweep.Options) (art *sweep.Artifact, err error) {
		err = s.tr.call(ctx, op, 0, "cluster.RunSweep", "cluster", nil, func(ctx context.Context, id int) error {
			s.op.Store(int64(op))
			s.parent.Store(int64(id))
			art, err = s.sweep(ctx, st, spec, opts)
			return err
		})
		return art, err
	})
	s.op.Store(0)
	if art == nil {
		return nil
	}
	s.cold = append(s.cold, ms)
	return s.recordPass(i, art, "cold-store cluster")
}

// check holds sweeps of the first grid answered from its now-warm store,
// and single-node sweep.Run of it, to the cold sweep's bytes, timing both.
func (s *clusterInst) check(ctx context.Context) []string {
	var bad []string
	if len(s.cold) == 0 {
		return append(bad, s.changed...)
	}
	reps := 10
	if s.e.short {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		start := time.Now()
		art, err := s.sweep(ctx, s.stores[0], s.specs[0], sweep.Options{})
		s.warm = append(s.warm, sinceMS(start))
		if err == nil {
			err = s.record(0, art, "warm-store cluster")
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("warm-store sweep: %v", err))
		}
	}
	start := time.Now()
	art, err := sweep.Run(ctx, s.specs[0], sweep.Options{})
	s.local = append(s.local, sinceMS(start))
	if err == nil {
		err = s.record(0, art, "single-node")
	}
	if err != nil {
		bad = append(bad, fmt.Sprintf("single-node sweep: %v", err))
	}
	return append(bad, s.changed...)
}

func (s *clusterInst) traced(context.Context) (tracedData, error) {
	extra := map[string]float64{}
	if len(s.local) > 0 && len(s.cold) > 0 {
		extra["cluster.overhead_ratio"] = s.cold[0] / s.local[0]
	}
	if len(s.warm) > 0 {
		extra["store.warm_sweep_ms"] = median(s.warm)
	}
	return tracedData{replays: s.replays, skipped: s.skipped, extra: extra}, nil
}

func (s *clusterInst) close() {
	for _, ts := range s.workers {
		ts.Close()
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.work) //nolint:errcheck // best-effort scratch cleanup
}
