package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/mc"
	"memreliability/internal/obs"
	"memreliability/internal/rng"
	"memreliability/internal/stats"
)

// span is one recorded interval. Benchmark spans, opened by memload
// around each call into a layer, carry start and end. Spans grafted from
// the stack's own obs trees carry only their duration, which is all obs
// exports.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"` // 0 for an op's root span
	Op     int               `json:"op"`
	Name   string            `json:"name"`
	Layer  string            `json:"layer"`
	Start  *int64            `json:"start_ns,omitempty"`
	End    *int64            `json:"end_ns,omitempty"`
	Dur    int64             `json:"dur_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// tracer keeps a traced pass's spans in memory until the run ends. A nil
// *tracer records nothing and wraps nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates the next op id (0 when untraced).
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// open starts a benchmark span and returns its id.
func (t *tracer) open(op, parent int, name, layer string) int {
	start := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Layer: layer, Start: &start})
	return len(t.spans)
}

// close ends benchmark span id and merges attrs into it.
func (t *tracer) close(id int, attrs map[string]string) {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = &end
	s.Dur = end - *s.Start
	for k, v := range attrs {
		if s.Attrs == nil {
			s.Attrs = make(map[string]string, len(attrs))
		}
		s.Attrs[k] = v
	}
}

// graft copies obs span trees under the benchmark span parent.
func (t *tracer) graft(op, parent int, trees []obs.SpanJSON) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.graftLocked(op, parent, trees)
}

func (t *tracer) graftLocked(op, parent int, trees []obs.SpanJSON) {
	for _, sj := range trees {
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: parent, Op: op, Name: sj.Name, Layer: layerOf(sj.Name),
			Dur: int64(sj.DurationMS * float64(time.Millisecond)), Attrs: sj.Attrs,
		})
		t.graftLocked(op, len(t.spans), sj.Children)
	}
}

// call runs fn inside a benchmark span and grafts the obs spans its callees
// record under that span: fn's context carries an obs root. With a nil
// tracer it only calls fn.
func (t *tracer) call(ctx context.Context, op, parent int, name, layer string, attrs map[string]string, fn func(ctx context.Context, id int) error) error {
	if t == nil {
		return fn(ctx, 0)
	}
	id := t.open(op, parent, name, layer)
	root := obs.NewTrace(name)
	err := fn(obs.WithSpan(ctx, root), id)
	root.End()
	t.close(id, attrs)
	t.graft(op, id, root.Export().Children)
	return err
}

// wrap runs every request to h that belongs to an op inside a benchmark
// span placed by where, grafting the handler's obs spans under it; set-up
// traffic (op 0) passes straight through. classify, when set, names the
// request's class (an attribute of the span) after h returns.
func (t *tracer) wrap(h http.Handler, name, layer string, where func(*http.Request) (op, parent int), classify func(w http.ResponseWriter, r *http.Request) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent := where(r)
		if op == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.open(op, parent, name, layer)
		root := obs.NewTrace(name)
		h.ServeHTTP(w, r.WithContext(obs.WithSpan(r.Context(), root)))
		root.End()
		var attrs map[string]string
		if classify != nil {
			attrs = map[string]string{"class": classify(w, r)}
		}
		t.close(id, attrs)
		t.graft(op, id, root.Export().Children)
	})
}

// layerOf maps a program span name to its module.
func layerOf(name string) string {
	switch name {
	case "http.request", "cache.lookup", "compute":
		return "serve"
	case "store.lookup":
		return "store"
	case "estimate":
		return "estimator"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// childDur sums each span's children's durations, by parent id.
func (t *tracer) childDur() map[int]int64 {
	out := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		out[s.Parent] += s.Dur
	}
	return out
}

// self is a span's duration minus its children's, clipped at zero:
// children that overlap (cells of one sweep, batches on two workers)
// can sum past their parent.
func self(s span, children map[int]int64) int64 {
	if d := s.Dur - children[s.ID]; d > 0 {
		return d
	}
	return 0
}

// spanLayers derives the span-based layer metrics: self time per layer
// and op, sweep cell times per kind, pool idleness, and serve handler
// times per class.
//
// A sweep.cell span opens when the feed loop offers the cell, so it
// includes the wait for a free pool worker; a cell's work is the
// estimator.dispatch span inside it. Cells whose index is in skipped
// (exact cells at n > 2) did no work and count toward no cell time.
func (t *tracer) spanLayers(e *env, out map[string]float64, skipped map[string]bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 {
		return
	}
	children := t.childDur()
	selfNS := map[string]int64{}
	cells := map[string][]float64{}
	handlers := map[string][]float64{}
	busy := map[int]int64{} // cell work per sweep.Run span
	for _, s := range t.spans {
		selfNS[s.Layer] += self(s, children)
		ms := float64(s.Dur) / 1e6
		switch s.Name {
		case "estimator.dispatch":
			if s.Parent > 0 {
				if cell := t.spans[s.Parent-1]; cell.Name == "sweep.cell" {
					busy[cell.Parent] += s.Dur
					if !skipped[cell.Attrs["index"]] {
						cells[s.Attrs["kind"]] = append(cells[s.Attrs["kind"]], ms)
					}
				}
			}
		case "serve.ServeHTTP":
			handlers[s.Attrs["class"]] = append(handlers[s.Attrs["class"]], ms)
		}
	}
	var idle []float64
	for _, s := range t.spans {
		if s.Name == "sweep.Run" && s.Dur > 0 {
			idle = append(idle, 1-float64(busy[s.ID])/(float64(e.w)*float64(s.Dur)))
		}
	}
	for _, layer := range []string{"mc", "estimator", "sweep", "cluster", "serve"} {
		if ns, ok := selfNS[layer]; ok {
			out[layer+".self_ms_per_op"] = float64(ns) / 1e6 / float64(t.ops)
		}
	}
	for _, kind := range []string{"exact", "windowdist", "hybrid", "mc"} {
		if xs := cells[kind]; len(xs) > 0 {
			out["sweep.cell_ms."+kind] = median(xs)
		}
	}
	for _, class := range []string{"hit", "miss", "windowdist"} {
		if xs := handlers[class]; len(xs) > 0 {
			out["serve.handler_ms."+class] = median(xs)
		}
	}
	if len(idle) > 0 {
		out["sweep.worker_idle_ratio"] = mean(idle)
	}
}

// opDurations returns, per op, the duration of its spans named name.
func (t *tracer) opDurations(name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.Dur) / 1e6
		}
	}
	return out
}

// writeFile writes the spans to <dir>/<workload>.trace.json.
func (t *tracer) writeFile(e *env) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		W        int    `json:"w"`
		Ops      int    `json:"ops"`
		Spans    []span `json:"spans"`
	}{e.workload, e.seed, e.w, t.ops, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(e.dir, e.workload+".trace.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// counters is one parse of obs.Default()'s Prometheus text: series (name
// plus labels) to value.
type counters map[string]float64

func promSnapshot() counters {
	var b bytes.Buffer
	obs.Default().WritePrometheus(&b) // a bytes.Buffer write cannot fail
	out := counters{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func (c counters) minus(base counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// family returns the values of every series of the metric family.
func (c counters) family(name string) []float64 {
	var out []float64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			out = append(out, v)
		}
	}
	return out
}

func (c counters) sum(name string) float64 {
	s := 0.0
	for _, v := range c.family(name) {
		s += v
	}
	return s
}

// replayJob re-runs one MC query of a traced pass on a single worker
// through the mc harness with the kernel wrapped in a timer, so kernel
// time and harness time separate exactly.
type replayJob struct {
	engine string // "table" or "compiled" (bits), or "product" (hybrid)
	query  estimator.Query
	cfg    core.Config
	seed   uint64 // the estimator's derived substream seed
	trials int    // the fixed trial count, or the cap of an adaptive run
	// targets, when set, makes the replay adaptive with the query's
	// stopping rule.
	targets *mc.AdaptiveConfig
	// want reports whether the replay reproduced the estimator's result
	// bit for bit.
	want func(replayOut) bool
	// estimateMS is the query's estimator.EstimateExec latency when the
	// benchmark timed it beside the replay (else 0).
	estimateMS float64

	// Set by run: the replay's result, its time from the first draw on,
	// and the part of that time spent inside the kernel.
	ran        bool
	out        replayOut
	wall, busy time.Duration
}

type replayOut struct {
	estimate, mean, stdErr float64
	trials, rounds         int
}

// run executes the replay and records its outcome in j; the wall time
// excludes building the batch.
func (j *replayJob) run(ctx context.Context) error {
	var spent atomic.Int64
	var out replayOut
	var err error
	timeBits := func(b mc.BatchTrialBits) mc.BatchTrialBits {
		return func(src *rng.Source, words []uint64, n int) error {
			t := time.Now()
			err := b(src, words, n)
			spent.Add(int64(time.Since(t)))
			return err
		}
	}
	var start time.Time
	switch j.engine {
	case "table", "compiled":
		var batch mc.BatchTrialBits
		if j.engine == "table" {
			batch, err = j.cfg.NoBugBits()
		} else {
			var prog *core.Program
			if prog, err = core.DefaultPlanCache().Lookup(j.cfg); err == nil {
				batch = prog.BatchBits()
			}
		}
		if err != nil {
			return err
		}
		start = time.Now()
		if j.targets != nil {
			var r *mc.AdaptiveResult
			if r, err = mc.EstimateAdaptiveBits(ctx, *j.targets, timeBits(batch)); err == nil {
				out = replayOut{estimate: r.Estimate(), trials: r.TrialsUsed(), rounds: r.Rounds}
			}
		} else {
			var r *mc.Result
			if r, err = mc.EstimateProbabilityBits(ctx, mc.Config{Trials: j.trials, Workers: 1, Seed: j.seed}, timeBits(batch)); err == nil {
				out = replayOut{estimate: r.Estimate(), trials: j.trials}
			}
		}
	case "product":
		var batch mc.BatchMean
		if batch, err = j.cfg.ProductBatch(); err != nil {
			return err
		}
		timed := func(src *rng.Source, xs []float64) error {
			t := time.Now()
			err := batch(src, xs)
			spent.Add(int64(time.Since(t)))
			return err
		}
		start = time.Now()
		if j.targets != nil {
			var r *mc.AdaptiveMeanResult
			if r, err = mc.EstimateMeanAdaptiveBatch(ctx, *j.targets, timed); err == nil {
				out = replayOut{mean: r.Summary.Mean(), stdErr: r.Summary.StdErr(), trials: r.TrialsUsed(), rounds: r.Rounds}
			}
		} else {
			var s *stats.Summary
			if s, err = mc.EstimateMeanBatch(ctx, mc.Config{Trials: j.trials, Workers: 1, Seed: j.seed}, timed); err == nil {
				out = replayOut{mean: s.Mean(), stdErr: s.StdErr(), trials: j.trials}
			}
		}
	default:
		return fmt.Errorf("replay: unknown engine %q", j.engine)
	}
	if err != nil {
		return err
	}
	j.ran, j.out, j.wall, j.busy = true, out, time.Since(start), time.Duration(spent.Load())
	return nil
}

// adaptiveTargets is the mc stopping rule the estimator builds for an
// adaptive query on a single worker.
func adaptiveTargets(seed uint64, maxTrials int, halfWidth, relErr, confidence float64) *mc.AdaptiveConfig {
	return &mc.AdaptiveConfig{MaxTrials: maxTrials, Workers: 1, Seed: seed,
		TargetHalfWidth: halfWidth, TargetRelErr: relErr, Confidence: confidence}
}

// deriveLayers turns a traced pass into per-layer metrics: span
// attribution, counter deltas over the pass (and, for the plan cache,
// over set-up plus pass), kernel replays with the estimator's time over
// each one, and the rng and plan-lookup probes. Replays that fail to
// reproduce the estimator are wrong results.
func deriveLayers(ctx context.Context, e *env, tr *tracer, pass, whole counters, td tracedData) (map[string]float64, []string, error) {
	out := map[string]float64{}
	for k, v := range td.extra {
		out[k] = v
	}
	tr.spanLayers(e, out, td.skipped)

	if q := pass.sum(`estimator_queries_total{kind="mc"}`) + pass.sum(`estimator_queries_total{kind="hybrid"}`); q > 0 {
		out["core.kernels_built_per_query"] = pass.sum("core_kernels_built_total") / q
	}
	if builds := pass.sum("core_kernel_build_seconds_count"); builds > 0 {
		out["core.kernel_build_us"] = pass.sum("core_kernel_build_seconds_sum") / builds * 1e6
	}
	if whole.sum(`estimator_queries_total{kind="mc-compiled"}`) > 0 {
		out["core.plan_compiles"] = whole.sum("core_plans_compiled_total")
		out["core.plan_cache_hits"] = whole.sum("core_plan_cache_hits_total")
	}
	if pass.sum("mc_adaptive_stops_total") > 0 {
		out["mc.budget_stops"] = pass.sum(`mc_adaptive_stops_total{reason="budget"}`)
	}
	if batches := pass.sum("cluster_worker_batches_total"); batches > 0 {
		out["cluster.dispatches"] = batches
		out["cluster.cells_per_dispatch"] = pass.sum("cluster_worker_cells_total") / batches
		out["cluster.retries"] = pass.sum("cluster_retries_total")
		cells := pass.family("cluster_dispatch_total")
		if m := mean(cells); m > 0 {
			most := 0.0
			for _, c := range cells {
				most = math.Max(most, c)
			}
			out["cluster.worker_balance"] = most / m
		}
	}
	if pass.sum("store_gets_total")+pass.sum("store_puts_total") > 0 {
		out["store.gets"] = pass.sum("store_gets_total")
		out["store.puts"] = pass.sum("store_puts_total")
	}

	var wrong []string
	kernelNS := map[string]float64{}
	kernelTrials := map[string]float64{}
	var harnessNS, bitsTrials, productNS, productTrials float64
	var trials, rounds []float64
	gaps := map[estimator.Kind][]float64{} // EstimateExec minus replay, ms
	seen := map[string]core.Config{}
	for i := range td.replays {
		j := &td.replays[i]
		if !j.ran {
			if err := j.run(ctx); err != nil {
				return nil, nil, fmt.Errorf("replay %d: %w", i, err)
			}
		}
		got, wall, busy := j.out, j.wall, j.busy
		if !j.want(got) {
			wrong = append(wrong, fmt.Sprintf("%s replay of a %s query did not reproduce the estimator's result", j.engine, j.query.Model))
		}
		if j.estimateMS > 0 {
			gaps[j.query.Kind] = append(gaps[j.query.Kind], j.estimateMS-float64(wall)/1e6)
		}
		n := float64(got.trials)
		trials = append(trials, n)
		if j.targets != nil {
			rounds = append(rounds, float64(got.rounds))
		}
		if j.engine == "product" {
			productNS += float64(busy)
			productTrials += n
		} else {
			key := j.engine + "." + j.query.Model
			kernelNS[key] += float64(busy)
			kernelTrials[key] += n
			harnessNS += float64(wall - busy)
			bitsTrials += n
		}
		seen[configKey(j.cfg)] = j.cfg
	}
	for k, ns := range kernelNS {
		out["core.kernel_ns_per_trial."+k] = ns / kernelTrials[k]
	}
	for kind, xs := range gaps {
		out["estimator.overhead_ms."+string(kind)] = median(xs)
	}
	if bitsTrials > 0 {
		out["mc.harness_ns_per_trial"] = harnessNS / bitsTrials
	}
	if productTrials > 0 {
		out["core.product_ns_per_trial"] = productNS / productTrials
	}
	if len(trials) > 0 {
		out["mc.trials_per_query"] = mean(trials)
	}
	if len(rounds) > 0 {
		out["mc.rounds_per_query"] = mean(rounds)
	}
	if len(seen) > 0 {
		us, err := planLookupUS(seen)
		if err != nil {
			return nil, nil, err
		}
		out["core.plan_lookup_us"] = us
	}
	out["rng.fill_ns_per_word"] = rngFillNS(e.seed)
	return out, wrong, nil
}

// configKey identifies a joined-model configuration.
func configKey(c core.Config) string {
	return fmt.Sprintf("%s/%d/%d/%v/%v", c.Model.Name(), c.Threads, c.PrefixLen, c.StoreProb, c.SwapProb)
}

// planLookupUS is the median over the configurations of a warm
// DefaultPlanCache lookup, in microseconds.
func planLookupUS(cfgs map[string]core.Config) (float64, error) {
	const reps = 100
	pc := core.DefaultPlanCache()
	var per []float64
	for _, key := range sortedKeys(cfgs) {
		cfg := cfgs[key]
		if _, err := pc.Lookup(cfg); err != nil {
			return 0, fmt.Errorf("plan lookup: %w", err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			pc.Lookup(cfg) //nolint:errcheck // compiled above
		}
		per = append(per, float64(time.Since(start))/reps/1e3)
	}
	return median(per), nil
}

// rngFillNS is the median cost per word of bulk-filling 8192 words.
func rngFillNS(seed uint64) float64 {
	src := rng.New(seed)
	buf := make([]uint64, 8192)
	per := make([]float64, 0, 101)
	for i := 0; i < 101; i++ {
		start := time.Now()
		src.FillUint64s(buf)
		per = append(per, float64(time.Since(start))/float64(len(buf)))
	}
	return median(per)
}
