package wire

import (
	"bytes"
	"container/list"
	"hash/maphash"
	"sync"
)

const (
	// uploadKeysBytes is the memo's budget, charged by capacity: ≈ 150
	// repeated scale-48 uploads. A hot set beyond it hashes, as before.
	uploadKeysBytes = 16 << 20
	// doorkeeperSize recently hashed fingerprints are kept: a body is
	// admitted only if seen again within that many misses.
	doorkeeperSize = 1024
)

// MemCacheStats is what /v1/stats says about one in-process cache.
type MemCacheStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// counter and gauge are what UploadKeys books into, as method sets so
// that wire stays a leaf: *metrics.Counter and *metrics.Gauge are both.
type (
	counter interface{ Inc() }
	gauge   interface{ Set(int64) }
)

// UploadKeys is an exact memo from upload bytes to their ImageKey, safe
// for concurrent use. A repeated upload is keyed by a seeded maphash and
// one bytes.Equal against the body it retained instead of by a SHA-256:
// a fingerprint collision costs a hash, never a wrong key. Only a body
// seen for the second time is admitted, so one-shot uploads retain
// nothing, and every retained body is charged its capacity against one
// byte budget, evicting least recently used first.
type UploadKeys struct {
	hit, miss   counter
	resident    gauge
	budget      int64
	fingerprint func([]byte) uint64

	mu    sync.Mutex
	seen  [doorkeeperSize]uint64 // ring of recently hashed fingerprints
	next  int
	m     map[uint64]*list.Element // of *upload
	order *list.List               // front = most recently used
	bytes int64
}

type upload struct {
	fp   uint64
	key  string
	body []byte
}

// NewUploadKeys returns an empty memo that counts the calls of Of
// answered from it as hit and those that hashed as miss, and sets
// resident to the bytes it retains.
func NewUploadKeys(hit, miss counter, resident gauge) *UploadKeys {
	seed := maphash.MakeSeed()
	return &UploadKeys{hit: hit, miss: miss, resident: resident, budget: uploadKeysBytes,
		fingerprint: func(b []byte) uint64 { return maphash.Bytes(seed, b) },
		m:           make(map[uint64]*list.Element), order: list.New()}
}

// Of returns ImageKey(body), always. The memo may retain body itself,
// not a copy: a caller must never write to a body after passing it in.
func (u *UploadKeys) Of(body []byte) string {
	fp := u.fingerprint(body)
	u.mu.Lock()
	if el, ok := u.m[fp]; ok && bytes.Equal(el.Value.(*upload).body, body) {
		u.order.MoveToFront(el)
		key := el.Value.(*upload).key
		u.mu.Unlock()
		u.hit.Inc()
		return key
	}
	again := u.sightedLocked(fp)
	u.mu.Unlock()
	u.miss.Inc()
	key := ImageKey(body)
	if again && int64(cap(body)) <= u.budget {
		u.add(&upload{fp, key, body})
	}
	return key
}

// sightedLocked reports whether fp is in the doorkeeper's ring, and
// records it there if not.
func (u *UploadKeys) sightedLocked(fp uint64) bool {
	for _, s := range u.seen {
		if s == fp {
			return true
		}
	}
	u.seen[u.next] = fp
	u.next = (u.next + 1) % len(u.seen)
	return false
}

// add makes e the most recently used entry, replacing whatever its
// fingerprint held, and evicts from the back until the budget holds.
func (u *UploadKeys) add(e *upload) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if el, ok := u.m[e.fp]; ok {
		u.removeLocked(el)
	}
	u.m[e.fp] = u.order.PushFront(e)
	u.bytes += int64(cap(e.body))
	for u.bytes > u.budget {
		u.removeLocked(u.order.Back())
	}
	u.resident.Set(u.bytes)
}

func (u *UploadKeys) removeLocked(el *list.Element) {
	e := u.order.Remove(el).(*upload)
	delete(u.m, e.fp)
	u.bytes -= int64(cap(e.body))
}

// Stats reports the entries and bytes retained.
func (u *UploadKeys) Stats() MemCacheStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return MemCacheStats{Entries: u.order.Len(), Bytes: u.bytes}
}
