package index

import (
	"container/list"
	"sync"

	"repro/internal/metrics"
)

// resultCache is the store's LRU of materialized query results. An
// entry remembers its community's write generation at the time it was
// computed; get treats an entry from another generation as a miss and
// evicts it, so a writer invalidates its community's entries with one
// integer assignment instead of a sweep.
//
// The cache stores canonical document pointers. That is safe because
// stored Documents are immutable once installed — Put replaces the
// pointer, never mutates — and a generation mismatch prevents a
// replaced document from ever being served. Store.Search clones on the
// way out, preserving its defensive-copy contract; SearchReadOnly hands
// out the cached slice itself, to callers bound not to modify it.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
	// hit/miss accounting lives in the owning store's metrics registry;
	// the handles are resolved once at construction.
	hits   *metrics.Counter
	misses *metrics.Counter
}

type cacheEntry struct {
	key  string
	gen  uint64
	docs []*Document
}

func newResultCache(capacity int, hits, misses *metrics.Counter) *resultCache {
	return &resultCache{
		cap:    capacity,
		ll:     list.New(),
		m:      make(map[string]*list.Element),
		hits:   hits,
		misses: misses,
	}
}

// get returns the cached result for key if it was computed under the
// current generation.
func (c *resultCache) get(key string, gen uint64) ([]*Document, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		c.ll.Remove(el)
		delete(c.m, key)
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return e.docs, true
}

// put stores a result computed under gen, evicting the least recently
// used entry when full.
func (c *resultCache) put(key string, gen uint64, docs []*Document) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*cacheEntry)
		e.gen = gen
		e.docs = docs
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, docs: docs})
	if c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).key)
	}
}

// entries returns the live entry count (tests only).
func (c *resultCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
