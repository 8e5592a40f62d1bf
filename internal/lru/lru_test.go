package lru

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memreliability/internal/obs"
)

func newTestCache(capacity int) (*Cache[string, *int], *obs.Counter) {
	evictions := obs.NewRegistry().Counter("test_evictions_total", "test")
	return New[string, *int](capacity, evictions), evictions
}

// intResult is a compute that returns a fresh *int holding v.
func intResult(v int) func() (*int, error) {
	return func() (*int, error) { return &v, nil }
}

// noCompute is the compute of a lookup that must not run one.
func noCompute(t *testing.T) func() (*int, error) {
	return func() (*int, error) {
		t.Error("a lookup that should have shared an entry ran compute")
		return nil, errors.New("unexpected compute")
	}
}

// blockedCompute returns a compute that signals started, then returns
// v and err once release closes.
func blockedCompute(v int, err error) (compute func() (*int, error), started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	return func() (*int, error) {
		close(started)
		<-release
		return &v, err
	}, started, release
}

// waitLookedUp returns once some lookup has moved key to the front of
// the recency order, polling without sleeping; it fails the test after
// a bound. The caller first moves another key to the front.
func waitLookedUp(t *testing.T, c *Cache[string, *int], key string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		front := c.order.Front().Value.(*entry[string, *int]).key
		c.mu.Unlock()
		if front == key {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no lookup of %q within 10s", key)
		}
		runtime.Gosched()
	}
}

// lookup is one Get's answer.
type lookup struct {
	val     *int
	outcome Outcome
	err     error
}

// startWaiters starts n lookups of key, each of which must reach the
// cache while key's compute is held: between starts, probe (a computed
// entry) is moved to the front, and the next waiter starts only once a
// lookup has moved key ahead of it again.
func startWaiters(t *testing.T, c *Cache[string, *int], key, probe string, n int) <-chan lookup {
	t.Helper()
	out := make(chan lookup, n)
	for i := 0; i < n; i++ {
		if _, outcome, _ := c.Get(probe, noCompute(t)); outcome != Ready {
			t.Fatalf("probe lookup: outcome %d, want Ready", outcome)
		}
		go func() {
			v, outcome, err := c.Get(key, noCompute(t))
			out <- lookup{v, outcome, err}
		}()
		waitLookedUp(t, c, key)
	}
	return out
}

// TestGetComputesOnce has 16 goroutines look up one new key at once:
// compute runs once, its caller reports Computed, every other lookup
// shares the value as Waited or Ready, and the cache holds one entry.
func TestGetComputesOnce(t *testing.T) {
	c, _ := newTestCache(4)
	var calls atomic.Int64
	compute := func() (*int, error) {
		calls.Add(1)
		v := 42
		return &v, nil
	}
	got := make([]lookup, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, outcome, err := c.Get("k", compute)
			got[g] = lookup{v, outcome, err}
		}(g)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times for one key", calls.Load())
	}
	computed := 0
	for g, l := range got {
		if l.err != nil {
			t.Fatalf("goroutine %d: %v", g, l.err)
		}
		if l.val == nil || l.val != got[0].val {
			t.Fatalf("goroutine %d got a different value", g)
		}
		switch l.outcome {
		case Computed:
			computed++
		case Waited, Ready:
		default:
			t.Fatalf("goroutine %d: unknown outcome %d", g, l.outcome)
		}
	}
	if computed != 1 || c.Len() != 1 {
		t.Fatalf("%d Computed outcomes and %d entries, want 1 and 1", computed, c.Len())
	}
}

// TestGetWaitsForInFlightCompute holds one compute while nine more
// lookups of its key reach the cache: each shares the one value with
// outcome Waited, and a lookup after the compute reports Ready.
func TestGetWaitsForInFlightCompute(t *testing.T) {
	c, _ := newTestCache(4)
	c.Get("probe", intResult(0))
	compute, started, release := blockedCompute(42, nil)
	leader := make(chan lookup, 1)
	go func() {
		v, outcome, err := c.Get("k", compute)
		leader <- lookup{v, outcome, err}
	}()
	<-started
	const waiters = 9
	waited := startWaiters(t, c, "k", "probe", waiters)
	close(release)

	first := <-leader
	if first.outcome != Computed || first.err != nil || *first.val != 42 {
		t.Fatalf("leader: %+v, want Computed 42", first)
	}
	for i := 0; i < waiters; i++ {
		l := <-waited
		if l.outcome != Waited || l.err != nil || l.val != first.val {
			t.Fatalf("waiter: outcome %d, err %v, shared value %v; want Waited, nil, true",
				l.outcome, l.err, l.val == first.val)
		}
	}
	if v, outcome, err := c.Get("k", noCompute(t)); outcome != Ready || err != nil || v != first.val {
		t.Fatalf("after the compute: outcome %d, err %v; want Ready with the shared value", outcome, err)
	}
}

// TestErrorIsForgotten fails one compute while a lookup waits on it:
// both see the error, the entry is dropped, and the next lookup
// computes afresh. A failure whose entry was evicted and then refilled
// leaves the newer entry in place.
func TestErrorIsForgotten(t *testing.T) {
	c, _ := newTestCache(2)
	c.Get("probe", intResult(0))
	errBad := errors.New("bad")
	compute, started, release := blockedCompute(0, errBad)
	leader := make(chan lookup, 1)
	go func() {
		v, outcome, err := c.Get("k", compute)
		leader <- lookup{v, outcome, err}
	}()
	<-started
	waited := startWaiters(t, c, "k", "probe", 1)
	close(release)
	if l := <-leader; l.outcome != Computed || !errors.Is(l.err, errBad) {
		t.Fatalf("failing compute: outcome %d, err %v; want Computed, errBad", l.outcome, l.err)
	}
	if l := <-waited; l.outcome != Waited || !errors.Is(l.err, errBad) {
		t.Fatalf("waiter on the failing compute: outcome %d, err %v; want Waited, errBad", l.outcome, l.err)
	}
	if c.Len() != 1 {
		t.Fatalf("%d entries after the failure, want 1 (the probe)", c.Len())
	}
	if v, outcome, err := c.Get("k", intResult(7)); outcome != Computed || err != nil || *v != 7 {
		t.Fatalf("lookup after the failure: outcome %d, err %v; want a fresh compute", outcome, err)
	}
	if _, outcome, _ := c.Get("k", noCompute(t)); outcome != Ready {
		t.Fatalf("a successful compute was not kept: outcome %d", outcome)
	}

	// Capacity 1: "x" evicts the failing entry of "j" while it computes,
	// and a second lookup of "j" fills a new entry. The failure must not
	// drop that one.
	c.SetCap(1)
	failing, failStarted, failRelease := blockedCompute(0, errBad)
	failed := make(chan error, 1)
	go func() {
		_, _, err := c.Get("j", failing)
		failed <- err
	}()
	<-failStarted
	c.Get("x", intResult(1))
	if _, outcome, err := c.Get("j", intResult(2)); outcome != Computed || err != nil {
		t.Fatalf("refill of the evicted key: outcome %d, err %v; want Computed", outcome, err)
	}
	close(failRelease)
	if err := <-failed; !errors.Is(err, errBad) {
		t.Fatalf("evicted compute: err %v, want errBad", err)
	}
	if v, outcome, err := c.Get("j", noCompute(t)); outcome != Ready || err != nil || *v != 2 {
		t.Fatalf("the evicted entry's failure dropped its successor: outcome %d, err %v", outcome, err)
	}
}

// TestPanicDoesNotWedgeKey panics in a compute while a lookup waits on
// it: the panic reaches the computing goroutine unchanged, the waiter
// gets ErrPanicked, and the key computes afresh afterwards.
func TestPanicDoesNotWedgeKey(t *testing.T) {
	c, _ := newTestCache(2)
	c.Get("probe", intResult(0))
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Get("k", func() (*int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waited := startWaiters(t, c, "k", "probe", 1)
	close(release)
	if p := <-recovered; p != "boom" {
		t.Fatalf("computing goroutine recovered %v, want the compute's panic", p)
	}
	if l := <-waited; l.outcome != Waited || !errors.Is(l.err, ErrPanicked) {
		t.Fatalf("waiter on the panicking compute: outcome %d, err %v; want Waited, ErrPanicked", l.outcome, l.err)
	}
	if v, outcome, err := c.Get("k", intResult(3)); outcome != Computed || err != nil || *v != 3 {
		t.Fatalf("lookup after the panic: outcome %d, err %v; want a fresh compute", outcome, err)
	}
}

// TestDistinctKeysComputeSeparately looks up two keys at once: each
// runs its own compute.
func TestDistinctKeysComputeSeparately(t *testing.T) {
	c, _ := newTestCache(4)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if _, outcome, err := c.Get(key, func() (*int, error) {
				calls.Add(1)
				return new(int), nil
			}); outcome != Computed || err != nil {
				t.Errorf("%s: outcome %d, err %v; want Computed", key, outcome, err)
			}
		}(key)
	}
	wg.Wait()
	if calls.Load() != 2 {
		t.Errorf("compute ran %d times, want 2 (distinct keys must not share)", calls.Load())
	}
}

// TestEvictsLeastRecentlyUsed checks the capacity bound, LRU order and
// the eviction count, for Get and for SetCap, and that an evicted key
// computes afresh.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c, evictions := newTestCache(2)
	computed := map[string]int{}
	get := func(key string) {
		t.Helper()
		if _, _, err := c.Get(key, func() (*int, error) {
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
