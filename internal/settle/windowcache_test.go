package settle

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"memreliability/internal/dist"
	"memreliability/internal/memmodel"
)

// samePMF reports the first difference between two PMFs, bit for bit:
// the support length, every At(γ) and Total().
func samePMF(got, want *dist.PMF) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("Len %d, want %d", got.Len(), want.Len())
	}
	for g := 0; g < want.Len(); g++ {
		if math.Float64bits(got.At(g)) != math.Float64bits(want.At(g)) {
			return fmt.Errorf("At(%d) = %v, want %v", g, got.At(g), want.At(g))
		}
	}
	if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
		return fmt.Errorf("Total = %v, want %v", got.Total(), want.Total())
	}
	return nil
}

// TestWindowCacheMatchesExactWindowDist checks the cache's truncated
// copies against the uncached DP at every tabulation length: below, at
// and past the full support, on an entry's first lookup and on later
// ones, with the first lookup asking for the longest table and for the
// shortest.
func TestWindowCacheMatchesExactWindowDist(t *testing.T) {
	points := [][2]float64{{0.5, 0.5}, {0.3, 0.7}, {0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}}
	for _, model := range memmodel.Registered() {
		for _, m := range []int{0, 1, 7, 16, 18} {
			for _, ps := range points {
				p, s := ps[0], ps[1]
				gammas := []int{0, m / 2, m, m + 3}
				want := map[int]*dist.PMF{}
				for _, g := range gammas {
					pmf, err := ExactWindowDist(model, m, p, s, g)
					if err != nil {
						t.Fatal(err)
					}
					want[g] = pmf
				}
				descending := []int{m + 3, m, m / 2, 0}
				for _, order := range [][]int{gammas, descending} {
					wc := newWindowCache(4)
					for pass := 0; pass < 2; pass++ {
						for _, g := range order {
							got, err := wc.WindowDist(model, m, p, s, g)
							if err != nil {
								t.Fatal(err)
							}
							if err := samePMF(got, want[g]); err != nil {
								t.Fatalf("%s m=%d p=%v s=%v maxGamma=%d (order %v, pass %d): %v",
									model.Name(), m, p, s, g, order, pass, err)
							}
						}
					}
					if wc.dists.Len() != 1 {
						t.Fatalf("%s m=%d p=%v s=%v: %d entries for one key", model.Name(), m, p, s, wc.dists.Len())
					}
				}
			}
		}
	}
}

// TestWindowCacheComputesOnce has 16 goroutines make the first lookup
// of one key at once: the DP runs exactly once and every goroutine gets
// its result.
func TestWindowCacheComputesOnce(t *testing.T) {
	wc := newWindowCache(4)
	want, err := ExactWindowDist(memmodel.WO(), 14, 0.5, 0.5, 14)
	if err != nil {
		t.Fatal(err)
	}
	evals, hits := settleWindowDPEvaluations.Value(), settleWindowCacheHits.Value()
	got := make([]*dist.PMF, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pmf, err := wc.WindowDist(memmodel.WO(), 14, 0.5, 0.5, 14)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = pmf
		}(g)
	}
	wg.Wait()
	if n := settleWindowDPEvaluations.Value() - evals; n != 1 {
		t.Fatalf("16 concurrent first lookups ran the DP %d times", n)
	}
	if n := settleWindowCacheHits.Value() - hits; n != 15 {
		t.Fatalf("16 concurrent first lookups counted %d hits, want 15", n)
	}
	for g, pmf := range got {
		if pmf == nil {
			t.Fatalf("goroutine %d got no result", g)
		}
		if err := samePMF(pmf, want); err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if wc.dists.Len() != 1 {
		t.Fatalf("cache holds %d entries for one key", wc.dists.Len())
	}
}

// TestWindowCacheBound checks that the cache stays at its capacity,
// counting one eviction per key past it, and that the key folds -0.0
// into +0.0 but tells distinct blocker rows apart.
func TestWindowCacheBound(t *testing.T) {
	const capacity, extra = 4, 3
	wc := newWindowCache(capacity)
	evictions := settleWindowCacheEvictions.Value()
	for m := 0; m < capacity+extra; m++ {
		if _, err := wc.WindowDist(memmodel.TSO(), m, 0.5, 0.5, m); err != nil {
			t.Fatal(err)
		}
	}
	if wc.dists.Len() != capacity {
		t.Fatalf("cache holds %d entries, want its capacity %d", wc.dists.Len(), capacity)
	}
	if n := settleWindowCacheEvictions.Value() - evictions; n != extra {
		t.Fatalf("%d evictions counted, want %d", n, extra)
	}

	wc = newWindowCache(capacity)
	negZero := math.Copysign(0, -1)
	evals := settleWindowDPEvaluations.Value()
	for _, p := range []float64{0, negZero} {
		for _, s := range []float64{0, negZero} {
			if _, err := wc.WindowDist(memmodel.PSO(), 6, p, s, 6); err != nil {
				t.Fatal(err)
			}
		}
	}
	if wc.dists.Len() != 1 || settleWindowDPEvaluations.Value()-evals != 1 {
		t.Fatalf("±0 spellings of one query: %d entries, %d DP runs, want 1 and 1",
			wc.dists.Len(), settleWindowDPEvaluations.Value()-evals)
	}
	if _, err := wc.WindowDist(memmodel.WO(), 6, 0, 0, 6); err != nil {
		t.Fatal(err)
	}
	if wc.dists.Len() != 2 {
		t.Fatal("models with different blocker rows share an entry")
	}
}

// TestWindowCacheValidation checks that invalid queries fail before the
// cache, NaN included, and occupy no entry.
func TestWindowCacheValidation(t *testing.T) {
	wc := newWindowCache(4)
	bad := []struct {
		m        int
		p, s     float64
		maxGamma int
	}{
		{50, 0.5, 0.5, 5}, {5, 1.5, 0.5, 5}, {5, 0.5, -1, 5}, {5, 0.5, 0.5, -1},
		{4, math.NaN(), 0.5, 4}, {4, 0.5, math.NaN(), 4},
	}
	for _, b := range bad {
		if _, err := wc.WindowDist(memmodel.TSO(), b.m, b.p, b.s, b.maxGamma); !errors.Is(err, ErrBadInput) {
			t.Errorf("m=%d p=%v s=%v maxGamma=%d accepted", b.m, b.p, b.s, b.maxGamma)
		}
	}
	if _, err := wc.WindowDist(memmodel.Model{}, 4, 0.5, 0.5, 4); !errors.Is(err, ErrBadInput) {
		t.Error("zero model accepted")
	}
	if wc.dists.Len() != 0 {
		t.Fatalf("rejected queries left %d entries", wc.dists.Len())
	}
}
