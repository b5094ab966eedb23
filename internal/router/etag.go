package router

import (
	"strings"
	"sync"

	"repro/internal/lru"
)

// etagEntry is what the router remembers about one route key: the raw
// (format-less) etag of the cached result and the backend that last
// served or announced it. The table is never authoritative — it is
// learned opportunistically from relayed responses and drain
// announcements, bounded, and evicted LRU; a stale or missing entry
// only costs a normal forward, never a wrong answer, because the raw
// etag is a pure function of the cached blob's bytes and the image key
// is a content hash.
type etagEntry struct {
	etag    string // raw 16-hex CRC64, no quotes, no format suffix
	backend string // backend that last served/announced this key
}

// etagTable is the bounded LRU (routeKey → etagEntry) map behind the
// router's local 304 short-circuit and the keyed cache read.
// Entries are charged nothing: the entry cap is the only bound.
type etagTable struct {
	mu      sync.Mutex
	entries lru.Cache[string, etagEntry]
}

func newETagTable(capacity int) *etagTable {
	return &etagTable{entries: lru.Cache[string, etagEntry]{MaxEntries: capacity}}
}

// learn upserts the entry for key, refreshing recency and evicting the
// least recently used entry past the cap.
func (t *etagTable) learn(key, etag, backend string) {
	if key == "" || etag == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries.Put(key, etagEntry{etag, backend}, 0)
}

// lookup returns key's entry, refreshing its recency.
func (t *etagTable) lookup(key string) (etagEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries.Get(key)
}

// dropIf removes key's entry only while it still names backend as the
// server — the staleness fix for a cache read answered 404 cache_miss
// by the very backend the table attributed the key to: the blob is gone
// (evicted, or the node restarted empty), so keeping the entry would
// answer local 304s and pay a cache read ahead of every upload for a
// result nobody holds. The backend guard makes the drop safe
// against a concurrent learn from a fresher response: re-homed entries
// survive.
func (t *etagTable) dropIf(key, backend string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries.Peek(key); ok && e.backend == backend {
		t.entries.Remove(key)
	}
}

func (t *etagTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries.Len()
}

// rawETagFromHeader extracts the raw (format-less) etag out of a
// response's entity tag: `"<16 hex>-<format>"`, weak or strong. It
// returns "" for anything that does not look exactly like the serving
// tier's tags, so junk headers can never populate the table.
func rawETagFromHeader(header string) string {
	t := strings.TrimSpace(header)
	t = strings.TrimPrefix(t, "W/")
	if len(t) < 2 || t[0] != '"' || t[len(t)-1] != '"' {
		return ""
	}
	t = t[1 : len(t)-1]
	dash := strings.LastIndexByte(t, '-')
	if dash != 16 || !validRawETag(t[:dash]) {
		return ""
	}
	return t[:dash]
}

// validRawETag reports whether s is shaped like the serving tier's raw
// etags: 16 lowercase hex digits.
func validRawETag(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
