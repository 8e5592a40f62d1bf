package settle

import (
	"math"

	"memreliability/internal/dist"
	"memreliability/internal/lru"
	"memreliability/internal/memmodel"
	"memreliability/internal/obs"
)

// windowCacheCap is the window cache's capacity. An entry holds at most
// maxExactPrefix+1 = 19 floats, so a full cache stays small; the cap
// bounds a churn of distinct (p, s) queries, not memory pressure.
const windowCacheCap = 256

// Window-cache metrics: DP evaluations (an uncached ExactWindowDist call
// or a cache miss), hits on an existing entry, and evictions by the
// capacity bound — all lock-free atomic counters.
var (
	settleWindowDPEvaluations = obs.Default().Counter("settle_window_dp_evaluations_total",
		"Exact window-distribution DP evaluations: uncached ExactWindowDist calls and window-cache misses.")
	settleWindowCacheHits = obs.Default().Counter("settle_window_cache_hits_total",
		"Window-cache lookups served by an existing entry.")
	settleWindowCacheEvictions = obs.Default().Counter("settle_window_cache_evictions_total",
		"Window distributions evicted by the window cache's capacity bound.")
)

// windowKey is everything the window DP reads: the model's blocker rows
// for a moving LD and a moving ST, the prefix length, and the IEEE bits
// of p and s with -0.0 folded into +0.0 (both run the DP identically).
// Two models with the same rows share entries.
type windowKey struct {
	ld, st       blockers
	m            int
	pBits, sBits uint64
}

// WindowCache is a concurrency-safe LRU of exact window distributions.
// Each entry is the DP's full-support table, γ ∈ [0, m], computed once;
// a lookup returns a PMF over its own copy of the table's first
// maxGamma+1 entries, zero-padded past m.
type WindowCache struct {
	dists *lru.Cache[windowKey, []float64]
}

func newWindowCache(capacity int) *WindowCache {
	return &WindowCache{dists: lru.New[windowKey, []float64](capacity, settleWindowCacheEvictions)}
}

// WindowDist returns ExactWindowDist(model, m, pStore, s, maxGamma) bit
// for bit, running the DP only on the first lookup of its inputs: a
// windowMass table is a bit-identical prefix of any longer one, and
// dist.NewPMF sums only the entries it is given.
func (wc *WindowCache) WindowDist(model memmodel.Model, m int, pStore, s float64, maxGamma int) (*dist.PMF, error) {
	if err := validateWindowArgs(model, m, pStore, s, maxGamma); err != nil {
		return nil, err
	}
	d := newDP(model, s)
	key := windowKey{ld: d.ld, st: d.st, m: m,
		pBits: math.Float64bits(pStore + 0), sBits: math.Float64bits(s + 0)}
	// The DP cannot fail on validated inputs, so no entry holds an error.
	mass, outcome, _ := wc.dists.Get(key, func() ([]float64, error) {
		return d.windowMass(m, pStore, m), nil
	})
	if outcome != lru.Computed {
		settleWindowCacheHits.Inc()
	}
	if maxGamma > m {
		padded := make([]float64, maxGamma+1)
		copy(padded, mass)
		mass = padded
	}
	return dist.NewPMF(mass[:maxGamma+1]) // NewPMF copies: the entry stays unshared
}

// defaultWindowCache serves the exact query routes: the windowdist
// estimator kind and core.ExactTwoThreadPrA.
var defaultWindowCache = newWindowCache(windowCacheCap)

// DefaultWindowCache returns the process-wide window cache.
func DefaultWindowCache() *WindowCache { return defaultWindowCache }
