package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

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
	srv := newBareServer(t, Config{PoolSize: pool, QueueDepth: 1})
	srv.coalesceMax = 1
	image := img.SpherePhantom(6)

	for round := 0; round < 5; round++ {
		start := make(chan struct{})
		errs := make(chan error, pool)
		for i := 0; i < pool; i++ {
			key := fmt.Sprintf("admit-%d-%d", round, i) // distinct keys: no coalescing path at all
			go func() {
				<-start
				_, err := srv.MeshSnapshot(context.Background(), key, "", image, nil)
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

// TestCancelClassification is the regression test for the
// cancel-vs-deadline misclassification: a caller that cancels while
// waiting for a session must be rejected with ErrCanceled and the
// "canceled" metric reason — not dressed up as a deadline expiry that
// invites a retry nobody will read.
func TestCancelClassification(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	image := img.SpherePhantom(8)

	// Occupy the only session so jobs must wait.
	lease, err := srv.Pool().Checkout(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the job is parked in the wait queue.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) && srv.pool.Waiters() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err = srv.MeshSnapshot(ctx, "cancel-classify", "", image, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled job returned %v, want ErrCanceled", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatal("caller cancellation classified as deadline expiry")
	}
	if n := srv.mRejected.Value("canceled"); n != 1 {
		t.Errorf(`rejected{reason="canceled"} = %d, want 1`, n)
	}
	if n := srv.mRejected.Value("deadline"); n != 0 {
		t.Errorf(`rejected{reason="deadline"} = %d, want 0`, n)
	}

	// Through HTTP the same condition is 499 (client closed request)
	// with no Retry-After: there is no point telling a dead client to
	// come back later.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	req := httptest.NewRequest("POST", ts.URL+"/v1/mesh", bytes.NewReader(nrrdBody(t, 8))).WithContext(cctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != wire.StatusClientClosedRequest {
		t.Fatalf("canceled HTTP request: status %d, want %d", rec.Code, wire.StatusClientClosedRequest)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Errorf("canceled request carries Retry-After %q; a gone client must not be invited back", ra)
	}
}

// TestImageKeyFullDigest is the regression test for the truncated
// image key: the key doubles as the coalescing join key and the
// image-cache/affinity identity, so it must be the complete SHA-256
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
	srv := newBareServer(t, Config{PoolSize: 1})
	srv.imgCache.maxEntries, srv.imgCache.budget = 10, n2+n3

	body := func(scale int) []byte {
		var b bytes.Buffer
		if err := img.WriteNRRD(&b, img.SpherePhantom(scale)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	b1, b2, b3 := body(6), body(7), body(8)
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
	if got := srv.imgCache.stats().Bytes; got != n1+n3 || got > n2+n3 {
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
	tiny := newBareServer(t, Config{PoolSize: 1})
	tiny.imgCache.maxEntries, tiny.imgCache.budget = 10, 16
	if _, err := tiny.decodeImage(k1, b1); err != nil {
		t.Fatal(err)
	}
	if tiny.imgCache.stats().Entries != 0 {
		t.Fatal("over-budget image was admitted to the cache")
	}
}

// TestDecodeImageRace: concurrent decodes of the same body must
// converge on one *img.Image pointer — the session EDT cache is keyed
// by pointer identity, so divergent pointers silently defeat it.
func TestDecodeImageRace(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1})
	var b bytes.Buffer
	if err := img.WriteNRRD(&b, img.SpherePhantom(8)); err != nil {
		t.Fatal(err)
	}
	body := b.Bytes()
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
