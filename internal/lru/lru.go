// Package lru is a bounded, concurrency-safe, least-recently-used cache
// of values computed once per key. The first lookup of a key runs its
// compute function outside the cache lock; concurrent first lookups of
// that key wait for the one call instead of duplicating it, and later
// lookups share its result until the entry is evicted. Eviction only
// forgets the cache's reference, so a holder of an evicted value keeps
// a valid one.
package lru

import (
	"container/list"
	"sync"

	"memreliability/internal/obs"
)

// Cache maps keys to values computed once per entry lifetime.
type Cache[K comparable, V any] struct {
	hits, evictions *obs.Counter

	mu      sync.Mutex
	cap     int
	entries map[K]*list.Element
	order   *list.List // front = most recently used; values are *entry[K, V]
}

// entry is one cache slot. Its once runs the compute function exactly
// once; both the value and the error are kept.
type entry[K comparable, V any] struct {
	key  K
	once sync.Once
	val  V
	err  error
}

// New returns a cache holding at most capacity entries (minimum 1). It
// counts lookups served by an existing entry on hits and entries dropped
// by the capacity bound on evictions; both are lock-free atomic counters.
func New[K comparable, V any](capacity int, hits, evictions *obs.Counter) *Cache[K, V] {
	return &Cache[K, V]{
		hits:      hits,
		evictions: evictions,
		cap:       max(capacity, 1),
		entries:   make(map[K]*list.Element),
		order:     list.New(),
	}
}

// Get returns the value for key, running compute on the entry's first
// lookup. Concurrent lookups of one key share one call of compute.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&entry[K, V]{key: key})
		c.entries[key] = el
		c.evictOverCap()
	}
	e := el.Value.(*entry[K, V])
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	}
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
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
