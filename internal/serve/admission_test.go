package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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

// TestImageCacheLRUBytes pins decodeImage's eviction policy: the cache
// is LRU accounted in bytes (one byte per voxel), a hit refreshes the
// entry's recency, and inserting past the byte budget evicts the least
// recently used image — not the oldest insertion.
func TestImageCacheLRUBytes(t *testing.T) {
	n := func(scale int) int64 { return int64(img.SpherePhantom(scale).NumVoxels()) }
	n1, n2, n3 := n(6), n(7), n(8)
	// Budget fits the two largest images but not all three, so the third
	// insert must evict exactly one entry — whichever is least recent.
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	srv.imgCache.cache.MaxEntries, srv.imgCache.cache.MaxBytes = 10, n2+n3

	b1, b2, b3 := nrrdBody(t, 6), nrrdBody(t, 7), nrrdBody(t, 8)
	k1, k2, k3 := wire.ImageKey(b1), wire.ImageKey(b2), wire.ImageKey(b3)

	im1, err := srv.decodeImage(k1, b1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.decodeImage(k2, b2); err != nil {
		t.Fatal(err)
	}
	// Refresh k1: under LRU this makes k2 the eviction victim; under the
	// old FIFO it would have been k1.
	again, err := srv.decodeImage(k1, b1)
	if err != nil {
		t.Fatal(err)
	}
	if again != im1 {
		t.Fatal("cached image not returned by pointer identity")
	}
	if hits := srv.imgCache.hit.Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// Third image overflows the byte budget: k2 (least recently used)
	// goes, the refreshed k1 survives.
	if _, err := srv.decodeImage(k3, b3); err != nil {
		t.Fatal(err)
	}
	if got := srv.imgCache.cache.Bytes(); got != n1+n3 || got > n2+n3 {
		t.Fatalf("cache accounts %d bytes after eviction, want %d (within budget %d)", got, n1+n3, n2+n3)
	}
	if ev := srv.imgCache.evict.Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	re1, err := srv.decodeImage(k1, b1)
	if err != nil {
		t.Fatal(err)
	}
	if re1 != im1 {
		t.Fatal("recently used k1 was evicted; eviction is not LRU")
	}
	if _, err := srv.decodeImage(k2, b2); err != nil {
		t.Fatal(err)
	}
	if hits := srv.imgCache.hit.Value(); hits != 2 {
		t.Fatalf("hits = %d, want 2: k2 should have re-parsed after its eviction", hits)
	}

	// An image larger than the whole budget is refused outright rather
	// than evicting the entire cache.
	tiny, _ := newTestServer(t, Config{PoolSize: 1})
	tiny.imgCache.cache.MaxEntries, tiny.imgCache.cache.MaxBytes = 10, 16
	if _, err := tiny.decodeImage(k1, b1); err != nil {
		t.Fatal(err)
	}
	if tiny.imgCache.cache.Len() != 0 {
		t.Fatal("over-budget image was admitted to the cache")
	}
}

// TestDecodeImageRace: concurrent decodes of the same body must
// converge on one *img.Image pointer — the session EDT cache is keyed
// by pointer identity, so divergent pointers silently defeat it.
func TestDecodeImageRace(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	body := nrrdBody(t, 8)
	key := wire.ImageKey(body)

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
