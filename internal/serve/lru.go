package serve

import (
	"container/list"
	"sync"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// lru is a byte-budgeted least-recently-used map, safe for concurrent
// use: the one type behind both in-process caches (parsed images,
// encoded entities). A value larger than the whole budget is refused
// rather than evicting everything else; maxEntries, when positive, caps
// the entry count as well. hit, miss and evict are its own event counts
// and resident mirrors bytes — series of the two pi2md_mem_cache_*
// families.
type lru[V any] struct {
	budget           int64
	maxEntries       int
	hit, miss, evict *metrics.Counter
	resident         *metrics.Gauge

	mu    sync.Mutex
	m     map[string]*list.Element // of *lruEntry[V]
	order *list.List               // front = most recently used
	bytes int64
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newLRU[V any](name string, budget int64, maxEntries int, events *metrics.CounterVec, bytes *metrics.GaugeVec) *lru[V] {
	return &lru[V]{
		budget: budget, maxEntries: maxEntries,
		hit: events.With(name, "hit"), miss: events.With(name, "miss"), evict: events.With(name, "evict"),
		resident: bytes.With(name),
		m:        make(map[string]*list.Element), order: list.New(),
	}
}

// get returns key's value and makes it the most recently used.
func (c *lru[V]) get(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.miss.Inc()
		return v, false
	}
	c.hit.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts val, accounted as size bytes, evicting least recently used
// entries until both bounds hold again, and returns the value now
// resident under key: a key already present keeps its value, so racing
// producers converge on one. A refused val is returned as it came.
func (c *lru[V]) add(key string, val V, size int64) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, dup := c.m[key]; dup {
		return el.Value.(*lruEntry[V]).val
	}
	if size > c.budget {
		return val
	}
	c.m[key] = c.order.PushFront(&lruEntry[V]{key, val, size})
	c.bytes += size
	for (c.bytes > c.budget || (c.maxEntries > 0 && c.order.Len() > c.maxEntries)) && c.order.Len() > 1 {
		old := c.order.Remove(c.order.Back()).(*lruEntry[V])
		delete(c.m, old.key)
		c.bytes -= old.size
		c.evict.Inc()
	}
	c.resident.Set(c.bytes)
	return val
}

// MemCacheStats is what /v1/stats says about one in-process cache.
type MemCacheStats = wire.MemCacheStats

func (c *lru[V]) stats() MemCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemCacheStats{Entries: c.order.Len(), Bytes: c.bytes}
}
