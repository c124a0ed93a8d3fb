package service

import (
	"container/list"
	"sync"

	"relaxsched/internal/api"
	"relaxsched/internal/graph"
)

// graphCache is a size-bounded LRU cache of built CSR graphs keyed by
// canonical generator spec (GraphSpec.Key). Concurrent requests for the same
// key share one build: the loser of the insertion race waits on the winner's
// in-flight entry instead of generating the graph a second time.
type graphCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List               // front = most recently used
	entries  map[string]*list.Element // key -> element whose Value is *cacheEntry
	hits     int64
	misses   int64
	evicted  int64
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed when g/err are set
	g     *graph.Graph
	err   error
}

// newGraphCache returns a cache holding at most capacity graphs. Capacity 0
// disables caching (every Get builds); negative values are treated as 0.
func newGraphCache(capacity int) *graphCache {
	if capacity < 0 {
		capacity = 0
	}
	return &graphCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// Get returns the graph for spec, building it on a miss. The second result
// reports whether the call was served from cache (false for the builder and
// for waiters that piggybacked on an in-flight build). Failed builds are not
// cached: the entry is removed so a later identical submit retries.
func (c *graphCache) Get(spec api.GraphSpec) (*graph.Graph, bool, error) {
	if c.capacity == 0 {
		g, err := buildGraph(spec)
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return g, false, err
	}
	key := spec.Key()

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.hits++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		return e.g, true, nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.order.PushFront(e)
	c.misses++
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evicted++
	}
	c.mu.Unlock()

	// Build outside the lock; other keys proceed concurrently and same-key
	// callers wait on ready.
	e.g, e.err = buildGraph(spec)
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		// Only remove the entry if it is still ours (it may have been
		// evicted, or evicted and replaced, while we were building).
		if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == e {
			c.order.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, false, e.err
	}
	return e.g, false, nil
}

// Stats returns a snapshot of the cache counters.
func (c *graphCache) Stats() api.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return api.CacheStats{
		Entries:   c.order.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
	}
}
