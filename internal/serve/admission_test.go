package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"sync"
	"testing"

	"repro/internal/img"
	"repro/internal/wire"
)

// TestAdmissionCountsWaitersOnly is the regression test for the
// admission-accounting bug: a job that immediately acquires a free
// session must not count against QueueDepth. With PoolSize sessions
// all free and QueueDepth 1, a burst of PoolSize simultaneous jobs
// fits entirely in the pool — the old accounting (every arrival bumps
// the wait counter before checkout) spuriously rejected most of the
// burst.
func TestAdmissionCountsWaitersOnly(t *testing.T) {
	const pool = 4
	srv, _ := newTestServer(t, Config{PoolSize: pool, QueueDepth: 1})
	srv.coalesceMax = 1
	srv.cache = nil // nothing is asked twice: a cache would only write
	base := nrrdBody(t, 6)

	for round := 0; round < 5; round++ {
		start := make(chan struct{})
		errs := make(chan error, pool)
		for i := 0; i < pool; i++ {
			body := freshNRRD(base, int64(round), i) // distinct keys: no coalescing path at all
			go func() {
				<-start
				_, err := srv.walk(context.Background(), &job{key: wire.ImageKey(body), body: body})
				errs <- err
			}()
		}
		close(start)
		for i := 0; i < pool; i++ {
			if err := <-errs; errors.Is(err, ErrQueueFull) {
				t.Fatalf("round %d: burst of %d jobs on %d free sessions rejected queue-full", round, pool, pool)
			} else if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if n := srv.mRejected.Value("queue_full"); n != 0 {
		t.Errorf("queue_full rejections = %d, want 0", n)
	}
}

// TestImageKeyFullDigest is the regression test for the truncated
// image key: the key doubles as the coalescing join key and the
// image-cache identity, so it must be the complete SHA-256
// digest, not a collision-prone 8-byte prefix.
func TestImageKeyFullDigest(t *testing.T) {
	body := []byte("not really an image, but hashing does not care")
	key := wire.ImageKey(body)
	if len(key) != 64 {
		t.Fatalf("ImageKey is %d hex chars, want 64 (full SHA-256)", len(key))
	}
	sum := sha256.Sum256(body)
	if key != hex.EncodeToString(sum[:]) {
		t.Fatal("ImageKey does not match the full SHA-256 of the body")
	}
}

// TestImageCacheLRUBytes pins decodeImage's admission and eviction
// policy: a key's first parse is not retained and its second is, the
// cache is LRU accounted in bytes (one byte per voxel), a hit refreshes
// the entry's recency, and admitting past the byte budget evicts the
// least recently used image — not the oldest insertion.
func TestImageCacheLRUBytes(t *testing.T) {
	n := func(scale int) int64 { return int64(img.SpherePhantom(scale).NumVoxels()) }
	n1, n2, n3 := n(6), n(7), n(8)
	// Budget fits the two largest images but not all three, so the third
	// admission must evict exactly one entry — whichever is least recent.
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	srv.imgCache.cache.MaxEntries, srv.imgCache.cache.MaxBytes = 10, n2+n3

	b1, b2, b3 := nrrdBody(t, 6), nrrdBody(t, 7), nrrdBody(t, 8)
	k1, k2, k3 := wire.ImageKey(b1), wire.ImageKey(b2), wire.ImageKey(b3)
	decode := func(key string, body []byte) *img.Image {
		t.Helper()
		im, err := srv.decodeImage(key, body)
		if err != nil {
			t.Fatal(err)
		}
		return im
	}

	first := decode(k1, b1)
	if n, b := srv.imgCache.cache.Len(), srv.imgCache.cache.Bytes(); n != 0 || b != 0 {
		t.Fatalf("a first sighting left %d images (%d bytes) resident, want none", n, b)
	}
	im1 := decode(k1, b1)
	if im1 == first || srv.imgCache.cache.Len() != 1 {
		t.Fatal("the second sighting was not parsed afresh and admitted")
	}
	decode(k2, b2)
	decode(k2, b2)
	// Refresh k1: under LRU this makes k2 the eviction victim; under the
	// old FIFO it would have been k1.
	if decode(k1, b1) != im1 {
		t.Fatal("cached image not returned by pointer identity")
	}
	if hits, misses := srv.imgCache.hit.Value(), srv.imgCache.miss.Value(); hits != 1 || misses != 4 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/4: a parse not admitted counts a miss", hits, misses)
	}

	// Third image's admission overflows the byte budget: k2 (least
	// recently used) goes, the refreshed k1 survives.
	decode(k3, b3)
	decode(k3, b3)
	if got := srv.imgCache.cache.Bytes(); got != n1+n3 || got > n2+n3 {
		t.Fatalf("cache accounts %d bytes after eviction, want %d (within budget %d)", got, n1+n3, n2+n3)
	}
	if ev := srv.imgCache.evict.Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if decode(k1, b1) != im1 {
		t.Fatal("recently used k1 was evicted; eviction is not LRU")
	}
	decode(k2, b2)
	if hits := srv.imgCache.hit.Value(); hits != 2 {
		t.Fatalf("hits = %d, want 2: k2 should have re-parsed after its eviction", hits)
	}

	// An image larger than the whole budget is refused outright rather
	// than evicting the entire cache.
	tiny, _ := newTestServer(t, Config{PoolSize: 1})
	tiny.imgCache.cache.MaxEntries, tiny.imgCache.cache.MaxBytes = 10, 16
	for range 2 {
		if _, err := tiny.decodeImage(k1, b1); err != nil {
			t.Fatal(err)
		}
	}
	if tiny.imgCache.cache.Len() != 0 {
		t.Fatal("over-budget image was admitted to the cache")
	}
}

// TestOneShotUploadRetainsNoImage: on the wire, an image uploaded once
// leaves pi2md_mem_cache_bytes{cache="image"} at 0, a second upload of it
// (another variant, so the result cache misses) is parsed and retained,
// and the third reuses that parse, so its session's distance transform.
func TestOneShotUploadRetainsNoImage(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	image := nrrdBody(t, 8)
	post := func(delta string) map[string]int64 {
		t.Helper()
		if a := send(t, ts.Client(), "POST", ts.URL+"/v1/mesh?delta="+delta, octet, image); a.StatusCode != http.StatusOK {
			t.Fatalf("delta %s: status %d: %.200s", delta, a.StatusCode, a.body)
		}
		return ledger(srv)
	}
	if l := post("2"); l["mem_bytes:image"] != 0 || l["mem:image,miss"] != 1 {
		t.Fatalf("a one-shot upload left %d image bytes resident after %d misses, want 0 after 1", l["mem_bytes:image"], l["mem:image,miss"])
	}
	voxels := int64(img.SpherePhantom(8).NumVoxels())
	if l := post("2.5"); l["mem_bytes:image"] != voxels || l["mem:image,miss"] != 2 || l["edt_hits"] != 0 {
		t.Fatalf("the second upload left %d image bytes after %d misses and %d EDT hits, want %d after 2 and 0",
			l["mem_bytes:image"], l["mem:image,miss"], l["edt_hits"], voxels)
	}
	if l := post("3"); l["mem:image,hit"] != 1 || l["edt_hits"] != 1 {
		t.Fatalf("the third upload: %d image hits and %d EDT hits, want 1 and 1", l["mem:image,hit"], l["edt_hits"])
	}
}

// TestDecodeImageRace: concurrent decodes of a body seen once before
// must converge on one *img.Image pointer — the session EDT cache is
// keyed by pointer identity, so divergent pointers silently defeat it.
func TestDecodeImageRace(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	body := nrrdBody(t, 8)
	key := wire.ImageKey(body)
	if _, err := srv.decodeImage(key, body); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	ptrs := make([]*img.Image, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			im, err := srv.decodeImage(key, body)
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[i] = im
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatal("racing decodes returned divergent image pointers")
		}
	}
}
