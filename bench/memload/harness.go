package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"

	"memreliability/internal/estimator"
	"memreliability/internal/stats"
)

// env is one invocation's fixed inputs.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration // length of the measured phase
	trace    bool
	w        int    // worker budget: min(nproc, 4)
	dir      string // trace file and scratch stores
	// short shrinks every input so a whole run takes well under a second:
	// the tests use it, and so do the traced run's probes of the layers
	// its own workload does not reach.
	short bool
	// tamper, when set, is applied to the first op's result of every
	// estimate-models pass. Tests use it to prove the output checks fire.
	tamper func(*estimator.Result)
}

// sample is one op's outcome.
type sample struct {
	// ms runs from the op's start, or from its scheduled send time in an
	// open loop, or from its sweep's start for a cell, to its end.
	ms float64
	ok bool
}

// recorder collects op samples; open-loop workloads add from many
// goroutines.
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// latencies returns the latencies of the successful ops.
func (r *recorder) latencies() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.samples {
		if s.ok {
			out = append(out, s.ms)
		}
	}
	return out
}

func (r *recorder) counts() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		if !s.ok {
			failed++
		}
	}
	return len(r.samples), failed
}

// instance is one set-up system under test holding the seed's inputs.
type instance interface {
	// pass runs one fixed unit of the workload's ops, recording each.
	// It errs only when the harness itself cannot go on; a failed op is
	// a sample with ok false.
	pass(ctx context.Context, rec *recorder) error
	// check runs the untimed output checks over everything the passes
	// returned, one line per failed check.
	check(ctx context.Context) []string
	// traced hands over what only the workload knows after a traced
	// pass: the MC queries to replay and its own layer metrics.
	traced(ctx context.Context) (tracedData, error)
	close()
}

// tracedData is an instance's contribution to the per-layer metrics.
type tracedData struct {
	replays []replayJob
	extra   map[string]float64
	skipped map[string]bool // sweep cell indices the traced sweep skipped
}

// workload is one registered workload.
type workload struct {
	name, why string
	// setup builds the inputs from e.seed and sets the system up. With a
	// tracer it also installs the span wrappers a traced pass needs.
	setup func(ctx context.Context, e *env, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"estimate-models", "Closed loop of fixed-trial estimates, all six models on both engines: rng, kernels and mc carry the time, and relaxed models show where the compiled engine loses.", setupEstimate},
	{"hybrid-precision", "Closed loop of adaptive queries to a stated accuracy: the product kernel, adaptive rounds and stopping rule carry the time; the compiled bits path is never used.", setupHybrid},
	{"sweep-local", "The 128-cell Theorem 6.3 grid through sweep.Run: small exact-DP cells beside MC cells in one pool, so pool scheduling and the DP matter.", setupSweepLocal},
	{"sweep-cluster", "The same grid through the coordinator, two loopback workers and a fresh store per sweep: adds dispatch, the wire format and store writes.", setupSweepCluster},
	{"serve-open", "Open loop at 40 req/s on the HTTP service: cache hits on 16 hot keys beside fresh compiled estimates and window distributions.", setupServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// outcome is everything one run reports.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	wrong     []string // failed output checks
}

func (o *outcome) correct() bool { return len(o.wrong) == 0 && o.failed == 0 }

// passRecord is one measured pass: its ops and its wall time.
type passRecord struct {
	rec  *recorder
	wall time.Duration
}

// measure runs whole passes until the next one would overrun the budget
// (at least one), so the measured mix is always complete passes.
func measure(ctx context.Context, inst instance, budget time.Duration) ([]passRecord, error) {
	var passes []passRecord
	start := time.Now()
	for {
		rec, t := &recorder{}, time.Now()
		if err := inst.pass(ctx, rec); err != nil {
			return nil, err
		}
		passes = append(passes, passRecord{rec, time.Since(t)})
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(passes)) > budget {
			return passes, nil
		}
	}
}

// passMetrics are the end-to-end timings of a run: each is the median
// over its passes of that pass's own value, so a pass slowed by a burst
// of other load on the machine does not move it. Every pass holds at
// least 100 ops, so its p90 has ten samples beyond it.
func passMetrics(passes []passRecord) (p50, p90, opsPerS float64) {
	var p50s, p90s, rates []float64
	for _, p := range passes {
		lat := p.rec.latencies()
		attempted, _ := p.rec.counts()
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		rates = append(rates, float64(attempted)/p.wall.Seconds())
	}
	return median(p50s), median(p90s), median(rates)
}

// runWorkload sets the workload up, measures it untraced, checks its
// outputs, and, for a traced run, adds the per-layer metrics.
func runWorkload(ctx context.Context, e *env) (*outcome, error) {
	wl, ok := lookupWorkload(e.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}
	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = wl.setup(ctx, e, nil); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	passes, err := measure(ctx, inst, e.budget)
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	o := &outcome{wrong: inst.check(ctx)}
	inst.close()
	for _, p := range passes {
		attempted, failed := p.rec.counts()
		o.attempted += attempted
		o.failed += failed
	}
	p50, p90, opsPerS := passMetrics(passes)
	e2e := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
		"ops_per_s":      opsPerS,
		"max_rss_mb":     maxRSSMB(),
	}
	if !e.trace {
		o.metrics = e2e
		return o, nil
	}
	return o, traceWorkload(ctx, e, wl, o, e2e["latency_p50_ms"])
}

// traceWorkload runs the workload's traced pass, then fills each
// per-layer metric its own ops never reach from a short traced pass of
// the workload that does reach it, so every metric is a measurement.
func traceWorkload(ctx context.Context, e *env, wl workload, o *outcome, untracedP50 float64) error {
	layers, tr, traceP50, err := tracedPass(ctx, e, wl, o)
	if err != nil {
		return err
	}
	if err := tr.writeFile(e); err != nil {
		return err
	}
	layers["trace.overhead_ratio"] = traceP50 / untracedP50
	for _, other := range workloads {
		if other.name == wl.name || missing(layers) == nil {
			continue
		}
		probe := *e
		probe.workload, probe.short, probe.tamper = other.name, true, nil
		more, _, _, err := tracedPass(ctx, &probe, other, o)
		if err != nil {
			return fmt.Errorf("probe %s: %w", other.name, err)
		}
		for k, v := range more {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
	}
	if m := missing(layers); m != nil {
		return fmt.Errorf("no workload measured %v", m)
	}
	o.metrics = layers
	return nil
}

// missing lists the catalog's per-layer metrics absent from layers.
func missing(layers map[string]float64) []string {
	var out []string
	for _, m := range perLayer {
		if _, ok := layers[m.name]; !ok {
			out = append(out, m.name)
		}
	}
	return out
}

// tracedPass sets the workload up with a tracer, runs one pass, checks
// it, replays its MC queries, and derives the layer metrics. Ops and
// failed checks accumulate into o.
func tracedPass(ctx context.Context, e *env, wl workload, o *outcome) (map[string]float64, *tracer, float64, error) {
	tr := newTracer()
	before := promSnapshot()
	inst, err := wl.setup(ctx, e, tr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s traced set-up: %w", wl.name, err)
	}
	defer inst.close()
	start := promSnapshot()
	rec := &recorder{}
	if err := inst.pass(ctx, rec); err != nil {
		return nil, nil, 0, fmt.Errorf("%s traced pass: %w", wl.name, err)
	}
	end := promSnapshot()
	attempted, failed := rec.counts()
	o.attempted += attempted
	o.failed += failed
	o.wrong = append(o.wrong, inst.check(ctx)...)
	td, err := inst.traced(ctx)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", wl.name, err)
	}
	layers, wrong, err := deriveLayers(ctx, e, tr, end.minus(start), end.minus(before), td)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", wl.name, err)
	}
	o.wrong = append(o.wrong, wrong...)
	return layers, tr, quantile(rec.latencies(), 0.5), nil
}

// quantile is the linearly interpolated q-quantile, 0 for no data.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxRSSMB is the process's peak resident set so far, in MiB. Each run
// is its own process, so it is the workload's peak.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sinceMS is the time since start in milliseconds.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
