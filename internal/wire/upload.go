package wire

import (
	"bytes"
	"hash/maphash"
	"sync"

	"repro/internal/lru"
)

const (
	// uploadKeysBytes is the memo's budget, charged by capacity: ≈ 150
	// repeated scale-48 uploads. A hot set beyond it hashes, as before.
	uploadKeysBytes = 16 << 20
)

// MemCacheStats is what the router's /v1/stats says about its upload
// cache.
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
	fingerprint func([]byte) uint64

	mu    sync.Mutex
	door  lru.Doorkeeper            // of recently hashed fingerprints
	index lru.Cache[uint64, upload] // by fingerprint
}

type upload struct {
	key  string
	body []byte
}

// NewUploadKeys returns an empty memo that counts the calls of Of
// answered from it as hit, those that hashed as miss and the bodies its
// budget dropped as evict, and sets resident to the bytes it retains.
func NewUploadKeys(hit, miss, evict counter, resident gauge) *UploadKeys {
	seed := maphash.MakeSeed()
	return &UploadKeys{hit: hit, miss: miss, resident: resident,
		fingerprint: func(b []byte) uint64 { return maphash.Bytes(seed, b) },
		index:       lru.Cache[uint64, upload]{MaxBytes: uploadKeysBytes, OnEvict: func(uint64, upload) { evict.Inc() }}}
}

// Of returns ImageKey(body), always. The memo may retain body itself,
// not a copy: a caller must never write to a body after passing it in.
func (u *UploadKeys) Of(body []byte) string {
	fp := u.fingerprint(body)
	u.mu.Lock()
	if e, ok := u.index.Get(fp); ok && bytes.Equal(e.body, body) {
		u.mu.Unlock()
		u.hit.Inc()
		return e.key
	}
	again := u.door.Sighted(fp)
	u.mu.Unlock()
	u.miss.Inc()
	key := ImageKey(body)
	if again {
		u.mu.Lock()
		u.index.Put(fp, upload{key, body}, int64(cap(body)))
		u.resident.Set(u.index.Bytes())
		u.mu.Unlock()
	}
	return key
}

// Stats reports the entries and bytes retained.
func (u *UploadKeys) Stats() MemCacheStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return MemCacheStats{Entries: u.index.Len(), Bytes: u.index.Bytes()}
}
