package serve

import (
	"hash/maphash"
	"sync"

	"repro/internal/lru"
	"repro/internal/metrics"
)

// memCache is an lru.Cache behind a mutex, booking its events: the one
// type behind both in-process caches (parsed images, encoded entities).
// hit, miss and evict are its own event counts and resident mirrors its
// bytes — series of the two pi2md_mem_cache_* families. With a
// doorkeeper it admits a value only when its key is seen for the second
// time, by a seeded maphash of the key.
type memCache[V any] struct {
	hit, miss, evict *metrics.Counter
	resident         *metrics.Gauge
	seed             maphash.Seed

	mu    sync.Mutex
	door  *lru.Doorkeeper // nil: admit every value
	cache lru.Cache[string, V]
}

func newMemCache[V any](name string, budget int64, maxEntries int, doorkeeper bool, events *metrics.CounterVec, bytes *metrics.GaugeVec) *memCache[V] {
	c := &memCache[V]{
		hit: events.With(name, "hit"), miss: events.With(name, "miss"), evict: events.With(name, "evict"),
		resident: bytes.With(name),
	}
	if doorkeeper {
		c.door, c.seed = new(lru.Doorkeeper), maphash.MakeSeed()
	}
	c.cache = lru.Cache[string, V]{MaxBytes: budget, MaxEntries: maxEntries, OnEvict: func(string, V) { c.evict.Inc() }}
	return c
}

// get returns key's value and makes it the most recently used.
func (c *memCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.cache.Get(key)
	if ok {
		c.hit.Inc()
	} else {
		c.miss.Inc()
	}
	return v, ok
}

// add inserts val, accounted as size bytes, and returns the value now
// resident under key: a key already present keeps its value, so racing
// producers converge on one. A val refused — by the budget, or by the
// doorkeeper at its key's first sighting — is returned as it came.
func (c *memCache[V]) add(key string, val V, size int64) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, dup := c.cache.Peek(key); dup {
		return cur
	}
	if c.door != nil && !c.door.Sighted(maphash.String(c.seed, key)) {
		return val
	}
	c.cache.Put(key, val, size)
	c.resident.Set(c.cache.Bytes())
	return val
}
