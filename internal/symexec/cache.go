package symexec

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe LRU memo for symbolic-execution
// verdicts. The controller's admission pipeline re-runs the same
// analyses constantly — re-deploys of an identical tenant config,
// failovers that re-verify a module on an alternate platform, rejected
// requests retried verbatim — and each run is pure: the verdict is a
// function of the canonicalized inputs. Entries are therefore
// content-addressed (the caller hashes the inputs into the key) and
// carry an optional dependency set:
//
//   - Entries stored with nil deps hold placement-independent results
//     (the security check of a standalone module) and always hit.
//   - Entries stored with deps hold results computed against a network
//     snapshot (requirement/policy checks over the compiled topology).
//     Get revalidates the recorded token→digest map and, when it no
//     longer holds, evicts the entry and reports a miss: invalidation
//     is lazy, paid on lookup, so a topology change costs nothing until
//     an entry that depends on it is read.
//
// The zero value is unusable; NewCache sizes the LRU. A nil *Cache is
// a valid always-miss cache, so callers can disable caching without
// branching.
type Cache struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *cacheEntry
	idx map[string]*list.Element

	hits, misses, evictions, invalidations uint64
}

type cacheEntry struct {
	key   string
	deps  map[string]string
	value any
}

// NewCache returns an LRU cache bounded to capacity entries
// (capacity <= 0 returns nil: caching disabled).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		cap: capacity,
		lru: list.New(),
		idx: make(map[string]*list.Element),
	}
}

// Get returns the cached value for key if present and still valid. An
// entry with a dependency set is valid while valid(deps) reports true
// (a nil valid rejects every such entry); a stale entry is deleted and
// reported as a miss.
func (c *Cache) Get(key string, valid func(deps map[string]string) bool) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.deps != nil && (valid == nil || !valid(e.deps)) {
		c.lru.Remove(el)
		delete(c.idx, key)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.value, true
}

// Put stores value under key with an optional dependency set for Get
// (nil: always valid). The deps map is retained; callers must not
// mutate it afterwards. The least-recently-used entry is evicted once
// the cache is full.
func (c *Cache) Put(key string, deps map[string]string, value any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		e := el.Value.(*cacheEntry)
		e.deps = deps
		e.value = value
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.idx, back.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.idx[key] = c.lru.PushFront(&cacheEntry{key: key, deps: deps, value: value})
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	// Hits and Misses count Get outcomes (an invalidated lookup counts
	// as both a miss and an invalidation).
	Hits, Misses uint64
	// Evictions counts capacity evictions; Invalidations counts
	// entries dropped because their dependency set went stale.
	Evictions, Invalidations uint64
	// Entries is the current resident count.
	Entries int
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: c.lru.Len(),
	}
}
