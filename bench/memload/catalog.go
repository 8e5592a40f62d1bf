package main

import (
	"encoding/json"
	"fmt"
)

// The catalog is the single source of BENCHMARK.json at the repository
// root (TestBenchmarkJSONMatchesCatalog fails when the two drift). It
// also carries what that file's schema has no room for: each per-layer
// metric's layer, the end-to-end metric it should move, and the
// workload where that shows.

// runSeconds is the measured-phase length the benchmark is run with.
const runSeconds = 15

// command is how the benchmark is invoked from the root of a checkout.
var command = []string{"bash", "bench/run.sh"}

// metric is one catalog entry.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// layer, moves and on tag a per-layer metric: the module it
	// measures, the end-to-end metric it should move, and the workload
	// where that shows ("all" for every workload).
	layer, moves, on string
}

// endToEnd are the metrics a user sees. Every workload reports every one
// of them: an "op" is one estimate, one adaptive query, one sweep, or
// one HTTP request, as the workload defines it.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.2},
}

// perLayer are the traced run's metrics.
var perLayer = append(append([]metric{
	{name: "rng.fill_ns_per_word", unit: "ns", better: "lower", layer: "rng", moves: "ops_per_s", on: "estimate-models"},
}, kernelMetrics()...), []metric{
	{name: "core.plan_compiles", unit: "count", better: "lower", layer: "core", moves: "setup_s", on: "estimate-models"},
	{name: "core.plan_cache_hits", unit: "count", better: "higher", layer: "core", moves: "latency_p90_ms", on: "serve-open"},
	{name: "core.plan_lookup_us", unit: "us", better: "lower", layer: "core", moves: "latency_p90_ms", on: "serve-open"},
	{name: "core.product_ns_per_trial", unit: "ns", better: "lower", layer: "core", moves: "latency_p50_ms", on: "hybrid-precision"},
	{name: "core.kernels_built_per_query", unit: "count", better: "lower", layer: "core", moves: "latency_p50_ms", on: "hybrid-precision"},
	{name: "core.kernel_build_us", unit: "us", better: "lower", layer: "core", moves: "latency_p50_ms", on: "hybrid-precision"},

	{name: "mc.harness_ns_per_trial", unit: "ns", better: "lower", layer: "mc", moves: "ops_per_s", on: "estimate-models"},
	{name: "mc.trials_per_query", unit: "count", better: "lower", layer: "mc", moves: "latency_p90_ms", on: "hybrid-precision"},
	{name: "mc.rounds_per_query", unit: "count", better: "lower", layer: "mc", moves: "latency_p50_ms", on: "hybrid-precision"},
	{name: "mc.budget_stops", unit: "count", better: "lower", layer: "mc", moves: "latency_p90_ms", on: "hybrid-precision"},
	{name: "mc.self_ms_per_op", unit: "ms", better: "lower", layer: "mc", moves: "latency_p50_ms", on: "estimate-models"},

	{name: "estimator.overhead_ms.mc", unit: "ms", better: "lower", layer: "estimator", moves: "latency_p50_ms", on: "estimate-models"},
	{name: "estimator.overhead_ms.mc-compiled", unit: "ms", better: "lower", layer: "estimator", moves: "latency_p50_ms", on: "estimate-models"},
	{name: "estimator.overhead_ms.hybrid", unit: "ms", better: "lower", layer: "estimator", moves: "latency_p50_ms", on: "hybrid-precision"},
	{name: "estimator.self_ms_per_op", unit: "ms", better: "lower", layer: "estimator", moves: "latency_p50_ms", on: "estimate-models"},

	{name: "sweep.cell_ms.exact", unit: "ms", better: "lower", layer: "sweep", moves: "ops_per_s", on: "sweep-local"},
	{name: "sweep.cell_ms.windowdist", unit: "ms", better: "lower", layer: "sweep", moves: "ops_per_s", on: "sweep-local"},
	{name: "sweep.cell_ms.hybrid", unit: "ms", better: "lower", layer: "sweep", moves: "ops_per_s", on: "sweep-local"},
	{name: "sweep.cell_ms.mc", unit: "ms", better: "lower", layer: "sweep", moves: "ops_per_s", on: "sweep-local"},
	{name: "sweep.worker_idle_ratio", unit: "ratio", better: "lower", layer: "sweep", moves: "ops_per_s", on: "sweep-local"},
	{name: "sweep.self_ms_per_op", unit: "ms", better: "lower", layer: "sweep", moves: "latency_p50_ms", on: "sweep-local"},

	{name: "cluster.dispatches", unit: "count", better: "lower", layer: "cluster", moves: "ops_per_s", on: "sweep-cluster"},
	{name: "cluster.cells_per_dispatch", unit: "count", better: "higher", layer: "cluster", moves: "ops_per_s", on: "sweep-cluster"},
	{name: "cluster.retries", unit: "count", better: "lower", layer: "cluster", moves: "latency_p90_ms", on: "sweep-cluster"},
	{name: "cluster.worker_balance", unit: "ratio", better: "lower", layer: "cluster", moves: "latency_p50_ms", on: "sweep-cluster"},
	{name: "cluster.overhead_ratio", unit: "ratio", better: "lower", layer: "cluster", moves: "ops_per_s", on: "sweep-cluster"},
	{name: "cluster.self_ms_per_op", unit: "ms", better: "lower", layer: "cluster", moves: "latency_p50_ms", on: "sweep-cluster"},

	{name: "store.gets", unit: "count", better: "lower", layer: "store", moves: "latency_p50_ms", on: "sweep-cluster"},
	{name: "store.puts", unit: "count", better: "lower", layer: "store", moves: "latency_p50_ms", on: "sweep-cluster"},
	{name: "store.warm_sweep_ms", unit: "ms", better: "lower", layer: "store", moves: "latency_p50_ms", on: "sweep-cluster"},

	{name: "serve.handler_ms.hit", unit: "ms", better: "lower", layer: "serve", moves: "latency_p50_ms", on: "serve-open"},
	{name: "serve.handler_ms.miss", unit: "ms", better: "lower", layer: "serve", moves: "latency_p90_ms", on: "serve-open"},
	{name: "serve.handler_ms.windowdist", unit: "ms", better: "lower", layer: "serve", moves: "latency_p90_ms", on: "serve-open"},
	{name: "serve.client_overhead_ms", unit: "ms", better: "lower", layer: "serve", moves: "latency_p50_ms", on: "serve-open"},
	{name: "serve.hit_ratio", unit: "ratio", better: "higher", layer: "serve", moves: "latency_p50_ms", on: "serve-open"},
	{name: "serve.dedup", unit: "count", better: "higher", layer: "serve", moves: "latency_p90_ms", on: "serve-open"},
	{name: "serve.latency_p99_ms", unit: "ms", better: "lower", layer: "serve", moves: "latency_p90_ms", on: "serve-open"},
	{name: "serve.miss_latency_p50_ms", unit: "ms", better: "lower", layer: "serve", moves: "latency_p90_ms", on: "serve-open"},
	{name: "serve.generator_late_ms", unit: "ms", better: "lower", layer: "serve", moves: "latency_p90_ms", on: "serve-open"},
	{name: "serve.self_ms_per_op", unit: "ms", better: "lower", layer: "serve", moves: "latency_p50_ms", on: "serve-open"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "trace", moves: "latency_p50_ms", on: "all"},
}...)

// kernelMetrics are the per-(engine, model) kernel costs: the compiled
// engine is faster than the table engine on some models and slower on
// others, so each pair is its own metric.
func kernelMetrics() []metric {
	var out []metric
	for _, engine := range []string{"table", "compiled"} {
		for _, model := range allModels {
			out = append(out, metric{
				name: "core.kernel_ns_per_trial." + engine + "." + model, unit: "ns", better: "lower",
				layer: "core", moves: "latency_p50_ms", on: "estimate-models",
			})
		}
	}
	return out
}

// benchmarkJSON renders the catalog in the BENCHMARK.json schema.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: command, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode BENCHMARK.json: %w", err)
	}
	return append(data, '\n'), nil
}
