package core

import (
	"memreliability/internal/obs"
)

// Kernel-construction metrics. NewKernel runs once per worker batch
// call on the bitset route, so these sit just off the chunk hot path:
// both updates are lock-free atomics with zero allocation, and the
// histogram observation derives from the wall clock only — never from
// experiment RNG.
var (
	coreKernelsBuilt = obs.Default().Counter("core_kernels_built_total",
		"Table-driven joined-process kernels constructed.")
	coreKernelBuildSeconds = obs.Default().Histogram("core_kernel_build_seconds",
		"Wall-clock time to validate a config and build its kernel.",
		obs.LogBuckets(1e-7, 4, 12))
)

// Compiler-engine metrics. Compiles happen once per plan-cache entry,
// hits on every lookup that finds one, evictions only when the LRU
// exceeds its cap — all lock-free atomic counters.
var (
	corePlansCompiled = obs.Default().Counter("core_plans_compiled_total",
		"Trial kernels monomorphized by the compiler engine.")
	corePlanCacheHits = obs.Default().Counter("core_plan_cache_hits_total",
		"Plan-cache lookups served by an existing entry.")
	corePlanCacheEvictions = obs.Default().Counter("core_plan_cache_evictions_total",
		"Compiled plans evicted by the LRU capacity bound.")
)
