package mc

import (
	"runtime"

	"memreliability/internal/obs"
)

// Package-level metric handles, resolved once against the process-global
// registry. The chunk closures touch only these pre-resolved handles —
// one atomic add per chunk for the counter pair — so the bit-parallel
// hot path stays zero-steady-state-allocation (asserted by the
// mc-instrumented/chunk-8k perf scenario). Everything observed here is
// derived from the chunk plan and wall clock, never from experiment
// RNG, so instrumentation cannot perturb results.
var (
	mcRuns = obs.Default().Counter("mc_runs_total",
		"Monte Carlo runs started (fixed and adaptive).")
	mcChunks = obs.Default().Counter("mc_chunks_total",
		"Deterministic RNG-substream chunks executed.")
	mcTrials = obs.Default().Counter("mc_trials_total",
		"Trials executed across all runs.")
	mcTrialsPerSec = obs.Default().Gauge("mc_trials_per_sec",
		"Throughput of the most recent completed run, in trials per second.")
	mcRunWorkers = obs.Default().Histogram("mc_run_workers",
		"The run's own worker count (after GOMAXPROCS default and chunk cap); borrowed pool slots are not counted.",
		obs.LogBuckets(1, 2, 9))
	mcHelperChunks = obs.Default().Counter("mc_helper_chunks_total",
		"Chunks run on a slot borrowed from a shared pool (Config.Helpers), beside the run's own workers.")
	mcAdaptiveRounds = obs.Default().Counter("mc_adaptive_rounds_total",
		"Sampling rounds executed by adaptive runs.")
	mcAdaptiveStopConverged = obs.Default().Counter("mc_adaptive_stops_total",
		"Adaptive runs stopped by reason.", obs.L("reason", "converged"))
	mcAdaptiveStopBudget = obs.Default().Counter("mc_adaptive_stops_total",
		"Adaptive runs stopped by reason.", obs.L("reason", "budget"))
)

// effectiveWorkers resolves a run's own worker count: 0 means
// GOMAXPROCS, then capped at the chunk count so no worker starts idle.
func effectiveWorkers(workers, nChunks int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nChunks {
		workers = nChunks
	}
	return workers
}

// observeStop bumps the stop-reason counter for an adaptive run.
func observeStop(reason StopReason) {
	switch reason {
	case StopConverged:
		mcAdaptiveStopConverged.Inc()
	case StopBudget:
		mcAdaptiveStopBudget.Inc()
	}
}
