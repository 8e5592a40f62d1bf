// Package lru is a bounded, concurrency-safe, least-recently-used cache
// of values computed once per key. The first lookup of a key runs its
// compute function outside the cache lock; concurrent first lookups of
// that key wait for the one call instead of duplicating it, and later
// lookups share its result until the entry is evicted. A failed compute
// is not kept: the callers already waiting share its error, and the
// next lookup computes afresh. A compute that panics fails its waiters
// the same way and leaves its key free. Eviction only forgets the
// cache's reference, so a holder of an evicted value keeps a valid one.
package lru

import (
	"container/list"
	"errors"
	"sync"

	"memreliability/internal/obs"
)

// ErrPanicked is the error callers waiting on a compute receive when
// that compute panicked instead of returning. The panic itself goes on
// up the goroutine that ran the compute.
var ErrPanicked = errors.New("lru: compute panicked")

// Outcome reports how Get answered.
type Outcome uint8

const (
	// Computed: this call ran compute.
	Computed Outcome = iota
	// Waited: this call shared another call's compute, in flight when
	// it looked the key up.
	Waited
	// Ready: the entry was already computed.
	Ready
)

// Cache maps keys to values computed once per entry lifetime.
type Cache[K comparable, V any] struct {
	evictions *obs.Counter

	mu      sync.Mutex
	cap     int
	entries map[K]*list.Element
	order   *list.List // front = most recently used; values are *entry[K, V]
}

// entry is one cache slot. done closes when its compute has finished;
// val and err are written before that and only read after.
type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most capacity entries (minimum 1),
// computing or computed. It counts entries dropped by the capacity
// bound on evictions, a lock-free atomic counter.
func New[K comparable, V any](capacity int, evictions *obs.Counter) *Cache[K, V] {
	return &Cache[K, V]{
		evictions: evictions,
		cap:       max(capacity, 1),
		entries:   make(map[K]*list.Element),
		order:     list.New(),
	}
}

// Get returns the value for key and how it was answered, running
// compute on the entry's first lookup. Concurrent lookups of one key
// share one call of compute. When compute fails or panics, the entry is
// dropped (unless it was already evicted) before its waiters are
// released, so no later lookup sees the failure.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		// Decided under the lock: a failed entry leaves the map before
		// its done closes, so a Ready entry never holds an error.
		select {
		case <-e.done:
			c.mu.Unlock()
			return e.val, Ready, e.err
		default:
		}
		c.mu.Unlock()
		<-e.done
		return e.val, Waited, e.err
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	el := c.order.PushFront(e)
	c.entries[key] = el
	c.evictOverCap()
	c.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			e.err = ErrPanicked
		}
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == el {
				c.order.Remove(el)
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = compute()
	returned = true
	return e.val, Computed, e.err
}

// Len reports the number of cached entries (computed or computing).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// SetCap adjusts the capacity (minimum 1), evicting least-recently-used
// entries as needed.
func (c *Cache[K, V]) SetCap(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = max(capacity, 1)
	c.evictOverCap()
}

// evictOverCap drops least-recently-used entries until the cache fits
// its capacity. The caller holds c.mu.
func (c *Cache[K, V]) evictOverCap() {
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
		c.evictions.Inc()
	}
}
