package core

import (
	"math"

	"memreliability/internal/lru"
)

// The plan cache memoizes compiled Programs by canonical query key, so
// repeated queries (sweep cells, serve traffic, cluster dispatches that
// vary only seed/trials) pay the compile exactly once. It is an
// lru.Cache: entries compile outside the cache lock — concurrent first
// lookups of one key block on a single compile, never duplicate it — and
// eviction only forgets the cache's reference: a Program is immutable
// and owns its scratch pool, so in-flight batch calls on an evicted
// program remain valid. A compile error is not kept.

// DefaultPlanCacheCap is the default compiled-plan capacity. Plans are
// small (a few closures plus pooled scratch); the cap exists to bound a
// pathological churn of distinct queries, not memory pressure.
const DefaultPlanCacheCap = 128

// planKey is the canonical identity of a compiled plan. Probabilities
// are keyed by their IEEE bits with negative zero normalized (+0.0 and
// -0.0 validate and estimate identically), and the model contributes
// both its canonical name and its relaxation mask, so two models that
// happen to share a name cannot alias each other's plans.
type planKey struct {
	model     string
	relaxMask uint16
	threads   int
	prefixLen int
	storeBits uint64
	swapBits  uint64
}

// planKeyOf builds the canonical key for a config.
func planKeyOf(c Config) planKey {
	var mask uint16
	for p := 0; p < 4; p++ {
		for m := 0; m < 4; m++ {
			if c.Model.Relaxed(kindType[p], kindType[m]) {
				mask |= 1 << uint(p*4+m)
			}
		}
	}
	return planKey{
		model:     c.Model.Name(),
		relaxMask: mask,
		threads:   c.Threads,
		prefixLen: c.PrefixLen,
		storeBits: math.Float64bits(c.StoreProb + 0), // +0 folds -0.0 into +0.0
		swapBits:  math.Float64bits(c.SwapProb + 0),
	}
}

// PlanCache is a concurrency-safe LRU cache of compiled Programs.
type PlanCache struct {
	plans *lru.Cache[planKey, *Program]
}

// NewPlanCache returns a cache holding at most capacity compiled plans
// (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{plans: lru.New[planKey, *Program](capacity, corePlanCacheEvictions)}
}

// Lookup returns the compiled program for the config, compiling it on
// first use. Concurrent lookups of the same key share one compile.
func (pc *PlanCache) Lookup(cfg Config) (*Program, error) {
	prog, outcome, err := pc.plans.Get(planKeyOf(cfg), func() (*Program, error) {
		ir, err := cfg.BuildIR()
		if err != nil {
			return nil, err
		}
		return ir.Compile()
	})
	if outcome != lru.Computed {
		corePlanCacheHits.Inc()
	}
	return prog, err
}

// Len reports the number of cached plans (compiled or compiling).
func (pc *PlanCache) Len() int { return pc.plans.Len() }

// SetCap adjusts the capacity (minimum 1), evicting least-recently-used
// plans as needed. Evicted programs stay valid for holders.
func (pc *PlanCache) SetCap(capacity int) { pc.plans.SetCap(capacity) }

// defaultPlanCache serves every compiled-path entry point in the package.
var defaultPlanCache = NewPlanCache(DefaultPlanCacheCap)

// DefaultPlanCache returns the process-wide plan cache used by the
// compiled estimation entry points (CompiledNoBugBits and friends).
func DefaultPlanCache() *PlanCache { return defaultPlanCache }
