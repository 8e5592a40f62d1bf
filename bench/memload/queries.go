package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memreliability/internal/core"
	"memreliability/internal/diffcheck"
	"memreliability/internal/estimator"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
	"memreliability/internal/shift"
)

// allModels are the registered memory models: the paper's four, then
// the two generated variants.
var allModels = []string{"SC", "TSO", "PSO", "WO", "RMO", "LRO"}

// queryLoop is the closed loop of estimate-models and hybrid-precision:
// W clients issue the queries, each taking the next one as it finishes
// the last and running it on one MC worker. That keeps the whole budget
// busy without fork-join inside a query, whose scheduling on a shared
// machine varied more from run to run. Every pass issues the same
// configurations. With reseed set, each pass after the first draws fresh
// query seeds from it: an adaptive query's trial count depends on its
// seed, so a run then averages over many seeds instead of repeating one
// draw of them.
type queryLoop struct {
	e       *env
	tr      *tracer
	ops     []estimator.Query
	reseed  *rng.Source
	queries [][]estimator.Query // by pass, by op
	results [][]estimator.Result
	replays []replayJob
}

// newQueryLoop runs each op once at warmTrials fixed trials: the set-up
// that compiles plans and faults in every code path before timing. The
// loop then issues the ops costliest first, as the warm-up timed them,
// so a pass ends on short queries instead of one client finishing a
// long one while the others idle; with the long ones last, how they
// fell to the clients made throughput vary from run to run.
func newQueryLoop(ctx context.Context, e *env, tr *tracer, ops []estimator.Query, warmTrials int) (*queryLoop, error) {
	cost := make([]time.Duration, len(ops))
	order := make([]int, len(ops))
	for i, q := range ops {
		q.Trials, q.Precision = min(q.Trials, warmTrials), nil
		start := time.Now()
		if _, err := estimator.EstimateExec(ctx, q, estimator.Exec{Workers: 1}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		cost[i], order[i] = time.Since(start), i
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	sorted := make([]estimator.Query, len(ops))
	for k, i := range order {
		sorted[k] = ops[i]
	}
	return &queryLoop{e: e, tr: tr, ops: sorted}, nil
}

// eachOp calls fn(i) for every i in [0, n) from w clients, each taking
// the next index as it finishes the last, and returns when all are done.
func eachOp(w, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (l *queryLoop) pass(ctx context.Context, rec *recorder) error {
	ops := l.ops
	if l.reseed != nil && len(l.queries) > 0 {
		ops = append([]estimator.Query(nil), l.ops...)
		for i := range ops {
			ops[i].Seed = l.reseed.Uint64()
		}
	}
	results := make([]estimator.Result, len(ops))
	ok := make([]bool, len(ops))
	eachOp(l.e.w, len(ops), func(i int) {
		start := time.Now()
		err := l.tr.call(ctx, l.tr.newOp(), 0, "estimator.EstimateExec", "estimator", nil,
			func(ctx context.Context, _ int) (err error) {
				results[i], err = estimator.EstimateExec(ctx, ops[i], estimator.Exec{Workers: 1})
				return err
			})
		ok[i] = err == nil
		rec.add(sample{ms: sinceMS(start), ok: ok[i]})
	})
	if l.e.tamper != nil {
		l.e.tamper(&results[0])
	}
	l.queries = append(l.queries, ops)
	l.results = append(l.results, results)
	if l.tr == nil {
		return nil
	}
	for i, q := range ops {
		if ok[i] {
			j, err := replayFor(q, results[i])
			if err != nil {
				return err
			}
			l.replays = append(l.replays, j)
		}
	}
	return nil
}

// repeats holds every later answer to a query of the first pass to that
// pass's answer: the passes that repeat it, or, when passes draw fresh
// seeds, one more untimed run of every step-th query.
func (l *queryLoop) repeats(ctx context.Context, step int) []string {
	var bad []string
	differs := func(q estimator.Query) {
		bad = append(bad, fmt.Sprintf("%s %s n=%d m=%d: a repeat gave another result", q.Kind, q.Model, q.Threads, q.PrefixLen))
	}
	if l.reseed == nil {
		for _, results := range l.results[1:] {
			for i, r := range results {
				if !reflect.DeepEqual(r, l.results[0][i]) {
					differs(l.queries[0][i])
				}
			}
		}
		return bad
	}
	for i := 0; i < len(l.queries[0]); i += step {
		q := l.queries[0][i]
		r, err := estimator.EstimateExec(ctx, q, estimator.Exec{Workers: 1})
		if err != nil || !reflect.DeepEqual(r, l.results[0][i]) {
			differs(q)
		}
	}
	return bad
}

// traced runs every op of the traced pass once more, untraced, and its
// replay right after it on the same client, W clients at a time: the
// two run under the same load, so their difference is the estimator's
// own time. It runs after the pass's counters are read.
func (l *queryLoop) traced(ctx context.Context) (tracedData, error) {
	errs := make([]error, len(l.replays))
	eachOp(l.e.w, len(l.replays), func(i int) {
		j := &l.replays[i]
		start := time.Now()
		if _, errs[i] = estimator.EstimateExec(ctx, j.query, estimator.Exec{Workers: 1}); errs[i] == nil {
			j.estimateMS = sinceMS(start)
			errs[i] = j.run(ctx)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return tracedData{}, fmt.Errorf("replay: %w", err)
	}
	return tracedData{replays: l.replays}, nil
}

func (l *queryLoop) close() {}

// coreConfig is the joined-model configuration of a query.
func coreConfig(q estimator.Query) (core.Config, error) {
	model, err := memmodel.ByName(q.Model)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Model: model, Threads: q.Threads, PrefixLen: q.PrefixLen,
		StoreProb: q.StoreProb, SwapProb: q.SwapProb}, nil
}

// replayFor builds the replay of an MC query the estimator answered
// with res: the same substream, trials and stopping rule on the kernel
// the query's kind runs on.
func replayFor(q estimator.Query, res estimator.Result) (replayJob, error) {
	q = q.Normalized()
	cfg, err := coreConfig(q)
	if err != nil {
		return replayJob{}, err
	}
	seed := estimator.DeriveSeeds(q.Seed, 1)[0]
	j := replayJob{query: q, cfg: cfg, seed: seed, trials: q.Trials}
	confidence := q.Confidence
	if confidence == 0 {
		confidence = estimator.DefaultConfidence
	}
	switch q.Kind {
	case estimator.FullMC, estimator.CompiledMC:
		j.engine = "table"
		if q.Kind == estimator.CompiledMC {
			j.engine = "compiled"
		}
		if p := q.Precision; p != nil {
			j.targets = adaptiveTargets(seed, p.MaxTrials, p.TargetHalfWidth, p.TargetRelErr, confidence)
		}
		j.want = func(o replayOut) bool {
			return o.estimate == res.Estimate && o.trials == res.TrialsUsed && o.rounds == res.Rounds
		}
	case estimator.Hybrid:
		j.engine = "product"
		if p := q.Precision; p != nil {
			// The estimator states a half-width on Pr[A]; the product
			// expectation it samples is Pr[A] divided by K(n).
			halfWidth := p.TargetHalfWidth
			if halfWidth > 0 {
				k, err := shift.Theorem61(q.Threads, 1)
				if err != nil {
					return replayJob{}, err
				}
				halfWidth /= k
			}
			j.targets = adaptiveTargets(seed, p.MaxTrials, halfWidth, p.TargetRelErr, confidence)
		}
		j.want = func(o replayOut) bool {
			return o.mean == res.ProductExpectation && o.stdErr == res.StdErr &&
				o.trials == res.TrialsUsed && o.rounds == res.Rounds
		}
	default:
		return replayJob{}, fmt.Errorf("no replay for kind %q", q.Kind)
	}
	return j, nil
}

// exactTwoThread is the n=2 dynamic program's Pr[A] interval at the
// query's parameters, its prefix clamped to the DP's range.
func exactTwoThread(q estimator.Query) (mid, halfWidth float64, err error) {
	cfg, err := coreConfig(q)
	if err != nil {
		return 0, 0, err
	}
	cfg.PrefixLen = min(cfg.PrefixLen, estimator.ExactPrefixCap)
	iv, err := core.ExactTwoThreadPrA(cfg)
	if err != nil {
		return 0, 0, err
	}
	return iv.Midpoint(), (iv.Hi - iv.Lo) / 2, nil
}

// estimateInst is estimate-models: fixed-trial estimates of every model
// at n ∈ {2,3,4} and m ∈ {12,24,32}, each (configuration, seed) pair
// issued on both engines.
type estimateInst struct{ *queryLoop }

func setupEstimate(ctx context.Context, e *env, tr *tracer) (instance, error) {
	trials, ns, ms := 32768, []int{2, 3, 4}, []int{12, 24, 32}
	if e.short {
		trials, ns, ms = 1024, []int{2, 3}, []int{12}
	}
	src := rng.New(e.seed)
	var ops []estimator.Query
	for _, model := range allModels {
		for _, n := range ns {
			for _, m := range ms {
				seed := src.Uint64()
				for _, kind := range []estimator.Kind{estimator.FullMC, estimator.CompiledMC} {
					ops = append(ops, estimator.Query{Kind: kind, Model: model, Threads: n, PrefixLen: m,
						StoreProb: 0.5, SwapProb: 0.5, Trials: trials, Seed: seed})
				}
			}
		}
	}
	evictPlans()
	l, err := newQueryLoop(ctx, e, tr, ops, 8192)
	if err != nil {
		return nil, err
	}
	return estimateInst{l}, nil
}

// evictPlans empties the process-wide compiled-plan cache down to the
// one plan SetCap keeps, so set-up pays the compiles.
func evictPlans() {
	pc := core.DefaultPlanCache()
	pc.SetCap(1)
	pc.SetCap(core.DefaultPlanCacheCap)
}

// check requires each mc/mc-compiled pair to be bit-identical, runs the
// closure-oracle engine check on one configuration per model, and tests
// every n=2 m=12 estimate against the exact two-thread value.
func (s estimateInst) check(ctx context.Context) []string {
	bad := s.repeats(ctx, 1)
	type pairKey struct {
		model string
		n, m  int
		seed  uint64
	}
	pairs := map[pairKey][]estimator.Result{}
	checked := map[string]bool{}
	for i, q := range s.queries[0] {
		k := pairKey{q.Model, q.Threads, q.PrefixLen, q.Seed}
		r := s.results[0][i]
		r.Kind = "" // the one field the engines may differ in
		pairs[k] = append(pairs[k], r)
		if q.Kind != estimator.FullMC {
			continue
		}
		if !checked[q.Model] {
			checked[q.Model] = true
			small := q
			small.Trials = min(q.Trials, 8192)
			if err := diffcheck.CheckEngines(ctx, small); err != nil {
				bad = append(bad, fmt.Sprintf("%s n=%d m=%d engines: %v", q.Model, q.Threads, q.PrefixLen, err))
			}
		}
		if q.Threads == 2 && q.PrefixLen == 12 {
			exact, _, err := exactTwoThread(q)
			if err == nil {
				err = diffcheck.CheckExactVsMC(ctx, q, exact)
			}
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s n=2 m=12 exact vs MC: %v", q.Model, err))
			}
		}
	}
	for _, q := range s.queries[0] {
		k := pairKey{q.Model, q.Threads, q.PrefixLen, q.Seed}
		if rs := pairs[k]; q.Kind == estimator.FullMC && (len(rs) != 2 || !reflect.DeepEqual(rs[0], rs[1])) {
			bad = append(bad, fmt.Sprintf("%s n=%d m=%d: mc and mc-compiled differ", q.Model, q.Threads, q.PrefixLen))
		}
	}
	return bad
}

// hybridInst is hybrid-precision: adaptive hybrid queries to a relative
// error and adaptive full-MC queries to a half-width, with fresh seeds
// every pass.
type hybridInst struct{ *queryLoop }

func setupHybrid(ctx context.Context, e *env, tr *tracer) (instance, error) {
	maxTrials, relErr, halfWidth, warm := 1<<20, 0.03, 0.0075, 2048
	ns, hybridMs, mcMs := []int{2, 3, 4, 6, 8}, []int{32, 48, 64}, []int{32, 64}
	if e.short {
		maxTrials, relErr, halfWidth, warm = 1<<13, 0.2, 0.05, 1024
		ns, hybridMs, mcMs = []int{2, 4}, []int{32}, []int{32}
	}
	src := rng.New(e.seed)
	var ops []estimator.Query
	add := func(kind estimator.Kind, ms []int, p estimator.Precision) {
		for _, model := range allModels[:4] {
			for _, n := range ns {
				for _, m := range ms {
					p := p
					ops = append(ops, estimator.Query{Kind: kind, Model: model, Threads: n, PrefixLen: m,
						StoreProb: 0.5, SwapProb: 0.5, Trials: maxTrials, Seed: src.Uint64(), Precision: &p})
				}
			}
		}
	}
	add(estimator.Hybrid, hybridMs, estimator.Precision{TargetRelErr: relErr})
	add(estimator.FullMC, mcMs, estimator.Precision{TargetHalfWidth: halfWidth})
	l, err := newQueryLoop(ctx, e, tr, ops, warm)
	if err != nil {
		return nil, err
	}
	l.reseed = src
	return hybridInst{l}, nil
}

// check reruns every fourth query of the first pass, which must give the
// same result, trials used included, and holds every n=2 answer to the
// exact two-thread value, within six standard errors plus the DP's own
// bracket and a prefix-truncation allowance. Queries whose prefixes
// clamp to the same length share one run of the dynamic program.
func (s hybridInst) check(ctx context.Context) []string {
	bad := s.repeats(ctx, 4)
	exacts := map[string][2]float64{}
	for pass, queries := range s.queries {
		bad = append(bad, checkExact(queries, s.results[pass], exacts)...)
	}
	return bad
}

func checkExact(queries []estimator.Query, results []estimator.Result, exacts map[string][2]float64) []string {
	var bad []string
	for i, q := range queries {
		if q.Threads != 2 {
			continue
		}
		key := fmt.Sprintf("%s/%d", q.Model, min(q.PrefixLen, estimator.ExactPrefixCap))
		if _, ok := exacts[key]; !ok {
			exact, bracket, err := exactTwoThread(q)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s n=2 exact: %v", q.Model, err))
				continue
			}
			exacts[key] = [2]float64{exact, bracket}
		}
		exact, bracket := exacts[key][0], exacts[key][1]
		r := results[i]
		var stdErr float64
		switch {
		case q.Kind == estimator.Hybrid && r.ProductExpectation > 0:
			stdErr = r.Estimate * r.StdErr / r.ProductExpectation
		case r.TrialsUsed > 0:
			stdErr = math.Sqrt(exact * (1 - exact) / float64(r.TrialsUsed))
		}
		if tol := 6*stdErr + bracket + 1e-3; math.Abs(r.Estimate-exact) > tol {
			bad = append(bad, fmt.Sprintf("%s %s n=2 m=%d: %v is %v from the exact %v (tolerance %v)",
				q.Kind, q.Model, q.PrefixLen, r.Estimate, math.Abs(r.Estimate-exact), exact, tol))
		}
	}
	return bad
}
