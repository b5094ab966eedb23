// Package lru is the one recency-and-budget index behind every bounded
// table of the serving tier: the parsed-image, entity and upload caches,
// the router's ETag table and the result store's index. Its Doorkeeper
// is the one second-sighting admission rule, in front of the upload and
// parsed-image caches. It is a stdlib-only leaf.
package lru

import (
	"container/list"
	"iter"
)

// Cache is a least-recently-used map bounded by MaxBytes, the sum of the
// sizes its values were put with, and, when positive, by MaxEntries. Like
// container/list it is not safe for concurrent use: each owner locks
// around it, so a conditional removal is a Peek and a Remove under that
// lock. The zero value is empty and admits only values of size 0, which
// is how a table bounded by entry count alone is built.
type Cache[K comparable, V any] struct {
	MaxBytes   int64
	MaxEntries int
	// OnEvict, when set, is called for each entry a bound forced out —
	// never for a value replaced by Put or dropped by Remove.
	OnEvict func(K, V)

	index map[K]*list.Element // of *entry[K, V]
	order list.List           // front = most recently used
	bytes int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// Get returns key's value and makes it the most recently used.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	if el, ok := c.index[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	return v, false
}

// Peek returns key's value without touching its recency.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	if el, ok := c.index[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	return v, false
}

// Put makes val, charged size bytes, key's value and the most recently
// used entry, then evicts from the least recently used end until both
// bounds hold. A size over MaxBytes is refused: Put changes nothing and
// returns false, so one oversized value cannot empty the cache, and the
// entry just put, which meets both bounds alone, is never evicted.
func (c *Cache[K, V]) Put(key K, val V, size int64) bool {
	if size > c.MaxBytes {
		return false
	}
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry[K, V])
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.order.MoveToFront(el)
	} else {
		if c.index == nil {
			c.index = make(map[K]*list.Element)
		}
		c.index[key] = c.order.PushFront(&entry[K, V]{key, val, size})
		c.bytes += size
	}
	for c.bytes > c.MaxBytes || (c.MaxEntries > 0 && c.order.Len() > c.MaxEntries) {
		e := c.unlink(c.order.Back())
		if c.OnEvict != nil {
			c.OnEvict(e.key, e.val)
		}
	}
	return true
}

// Remove drops key's entry and reports whether there was one.
func (c *Cache[K, V]) Remove(key K) bool {
	el, ok := c.index[key]
	if ok {
		c.unlink(el)
	}
	return ok
}

func (c *Cache[K, V]) unlink(el *list.Element) *entry[K, V] {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.index, e.key)
	c.bytes -= e.size
	return e
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Bytes returns the sum of the entries' sizes.
func (c *Cache[K, V]) Bytes() int64 { return c.bytes }

// All yields the entries, most recently used first, without touching
// recency. The cache must not change during the iteration.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for el := c.order.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*entry[K, V]); !yield(e.key, e.val) {
				return
			}
		}
	}
}
