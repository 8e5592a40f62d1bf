package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"memreliability/internal/obs"
)

func newTestCache(capacity int) (*Cache[string, *int], *obs.Counter, *obs.Counter) {
	reg := obs.NewRegistry()
	hits := reg.Counter("test_hits_total", "test")
	evictions := reg.Counter("test_evictions_total", "test")
	return New[string, *int](capacity, hits, evictions), hits, evictions
}

// TestGetComputesOnce has 16 goroutines look up one new key at once:
// compute runs once, every goroutine gets its value, and the other 15
// lookups count as hits.
func TestGetComputesOnce(t *testing.T) {
	c, hits, _ := newTestCache(4)
	var calls atomic.Int64
	compute := func() (*int, error) {
		calls.Add(1)
		v := 42
		return &v, nil
	}
	got := make([]*int, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := c.Get("k", compute)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = v
		}(g)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times for one key", calls.Load())
	}
	for g, v := range got {
		if v != got[0] || v == nil {
			t.Fatalf("goroutine %d got a different value", g)
		}
	}
	if hits.Value() != 15 || c.Len() != 1 {
		t.Fatalf("%d hits and %d entries, want 15 and 1", hits.Value(), c.Len())
	}
}

// TestEvictsLeastRecentlyUsed checks the capacity bound, LRU order and
// the eviction count, for Get and for SetCap, and that an evicted key
// computes afresh.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c, _, evictions := newTestCache(2)
	computed := map[string]int{}
	get := func(key string) {
		t.Helper()
		if _, err := c.Get(key, func() (*int, error) {
			computed[key]++
			return new(int), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // a is now the most recently used
	get("c") // evicts b
	if c.Len() != 2 || evictions.Value() != 1 {
		t.Fatalf("%d entries and %d evictions, want 2 and 1", c.Len(), evictions.Value())
	}
	get("a")
	if computed["a"] != 1 {
		t.Fatal("the most recently used entry was evicted")
	}
	get("b")
	if computed["b"] != 2 {
		t.Fatal("an evicted entry was served without recomputing")
	}
	c.SetCap(1) // keeps b, the most recently used
	get("b")
	if c.Len() != 1 || computed["b"] != 2 || evictions.Value() != 3 {
		t.Fatalf("after SetCap(1): %d entries, b computed %d times, %d evictions; want 1, 2, 3",
			c.Len(), computed["b"], evictions.Value())
	}
}

// TestErrorIsKept checks that an entry keeps its compute error rather
// than retrying it.
func TestErrorIsKept(t *testing.T) {
	c, _, _ := newTestCache(2)
	errBad := errors.New("bad")
	calls := 0
	for i := 0; i < 2; i++ {
		if _, err := c.Get("k", func() (*int, error) { calls++; return nil, errBad }); !errors.Is(err, errBad) {
			t.Fatalf("lookup %d: err = %v, want errBad", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
}
