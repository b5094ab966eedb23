package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cachestore"
	"repro/internal/faultinject"
	"repro/internal/wire"
)

// hitLedger is everything a cache-served request moves: the serving
// counters, the stats ring, and the store's own lookups.
type hitLedger struct {
	accepted, completed, failed   int64
	cacheServed, cacheOnlyServed  int64
	runs, storeHits, storeMisses  int64
	recorded                      int // entries in /v1/stats' ring
	entityHits, entityMisses, ent int64
}

func readHitLedger(srv *Server, cache *cachestore.Store) hitLedger {
	cs := cache.Stats()
	return hitLedger{
		accepted: srv.mAccepted.Value(), completed: srv.mCompleted.Value(), failed: srv.mFailed.Value(),
		cacheServed: srv.mCacheServed.Value(), cacheOnlyServed: srv.mCacheOnlyServed.Value(),
		runs: srv.mRunSeconds.Count(), storeHits: cs.Hits, storeMisses: cs.Misses,
		recorded:   len(srv.Stats().RecentRuns),
		entityHits: srv.entities.hit.Value(), entityMisses: srv.entities.miss.Value(),
		ent: srv.entities.stats().Bytes,
	}
}

// sub returns the movement from before to l.
func (l hitLedger) sub(before hitLedger) hitLedger {
	return hitLedger{
		l.accepted - before.accepted, l.completed - before.completed, l.failed - before.failed,
		l.cacheServed - before.cacheServed, l.cacheOnlyServed - before.cacheOnlyServed,
		l.runs - before.runs, l.storeHits - before.storeHits, l.storeMisses - before.storeMisses,
		l.recorded - before.recorded,
		l.entityHits - before.entityHits, l.entityMisses - before.entityMisses, l.ent - before.ent,
	}
}

// fetch sends req and returns the response with its body read.
func fetch(t *testing.T, c *http.Client, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestEntityCacheServesIdenticalBytes: a hit answered from memory is the
// disk hit it stands in for — same bytes, same headers, same ledger
// movement, one store lookup — and reads no blob: the pair's blob file
// is moved aside for the memory hits and nothing misses or runs.
func TestEntityCacheServesIdenticalBytes(t *testing.T) {
	image := nrrdBody(t, 7)
	key := wire.ImageKey(image)
	spec := wire.MeshSpec{MaxElements: 500}
	variant := spec.Variant()

	endpoints := []struct {
		name      string
		cacheOnly bool
		request   func(base, format string) *http.Request
	}{
		{"POST /v1/mesh", false, func(base, format string) *http.Request {
			return pinReq(t, "POST", base+"/v1/mesh?max_elements=500&format="+format, "application/octet-stream", image)
		}},
		{"GET /v1/cache", true, func(base, format string) *http.Request {
			return pinReq(t, "GET", base+"/v1/cache/"+key+"/"+url.PathEscape(variant)+"?format="+format, "", nil)
		}},
	}
	for _, ep := range endpoints {
		for _, format := range []string{"vtk", "off"} {
			t.Run(ep.name+" "+format, func(t *testing.T) {
				dir := t.TempDir()
				cache := openTestCache(t, dir)
				srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
				client := ts.Client()

				// The miss: a fresh run, which admits nothing.
				_, meshed := fetch(t, client, endpoints[0].request(ts.URL, format))
				if st := srv.entities.stats(); st.Entries != 0 {
					t.Fatalf("a fresh run left %d entities in memory", st.Entries)
				}
				blobs, _ := filepath.Glob(filepath.Join(dir, "blobs", "*.snap"))
				if len(blobs) != 1 {
					t.Fatalf("want exactly one blob after one run, found %v", blobs)
				}

				// Hit 1: from disk, encoded, admitted.
				before := readHitLedger(srv, cache)
				diskResp, diskBody := fetch(t, client, ep.request(ts.URL, format))
				disk := readHitLedger(srv, cache).sub(before)
				if diskResp.StatusCode != http.StatusOK || !bytes.Equal(diskBody, meshed) {
					t.Fatalf("disk hit: status %d, body equal to the meshed one: %v", diskResp.StatusCode, bytes.Equal(diskBody, meshed))
				}
				wantCacheOnly := int64(0)
				if ep.cacheOnly {
					wantCacheOnly = 1
				}
				want := hitLedger{accepted: 1, completed: 1, cacheServed: 1, cacheOnlyServed: wantCacheOnly,
					storeHits: 1, recorded: 1, entityMisses: 1, ent: int64(len(meshed))}
				if disk != want {
					t.Fatalf("disk hit moved the ledger by %+v, want %+v", disk, want)
				}
				diskRun := srv.Stats().RecentRuns

				// Hits 2 and 3: from memory, with the blob gone from its path.
				aside := blobs[0] + ".aside"
				if err := os.Rename(blobs[0], aside); err != nil {
					t.Fatal(err)
				}
				for hit := 2; hit <= 3; hit++ {
					before = readHitLedger(srv, cache)
					memResp, memBody := fetch(t, client, ep.request(ts.URL, format))
					mem := readHitLedger(srv, cache).sub(before)
					if memResp.StatusCode != http.StatusOK {
						t.Fatalf("hit %d: status %d", hit, memResp.StatusCode)
					}
					if sha(memBody) != sha(diskBody) {
						t.Errorf("hit %d: body differs from the disk hit's", hit)
					}
					diskResp.Header.Del("Date")
					memResp.Header.Del("Date")
					if !reflect.DeepEqual(memResp.Header, diskResp.Header) {
						t.Errorf("hit %d: headers differ from the disk hit's:\n mem  %v\n disk %v", hit, memResp.Header, diskResp.Header)
					}
					if memResp.ContentLength != int64(len(diskBody)) {
						t.Errorf("hit %d: Content-Length %d, want %d", hit, memResp.ContentLength, len(diskBody))
					}
					// The same movement, except that the entity was found.
					want.entityMisses, want.entityHits, want.ent = 0, 1, 0
					if mem != want {
						t.Errorf("hit %d moved the ledger by %+v, want %+v", hit, mem, want)
					}
					runs := srv.Stats().RecentRuns
					if !reflect.DeepEqual(runs[len(runs)-1], diskRun[len(diskRun)-1]) {
						t.Errorf("hit %d recorded %+v, the disk hit %+v", hit, runs[len(runs)-1], diskRun[len(diskRun)-1])
					}
				}
				if err := os.Rename(aside, blobs[0]); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// meshOK posts image to /v1/mesh with the given query and returns the
// 200's body and raw ETag header.
func meshOK(t *testing.T, c *http.Client, base, query string, image []byte) ([]byte, string) {
	t.Helper()
	resp, body := fetch(t, c, pinReq(t, "POST", base+"/v1/mesh"+query, "application/octet-stream", image))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/mesh%s: status %d: %.200s", query, resp.StatusCode, body)
	}
	return body, resp.Header.Get("ETag")
}

func mruKeys(cache *cachestore.Store) []string {
	var keys []string
	for _, ki := range cache.KeysMRU() {
		keys = append(keys, ki.ImageKey)
	}
	return keys
}

// TestEntityCacheFollowsTheStore: the store stays the authority. A
// memory hit refreshes the pair's recency exactly as a disk hit does; a
// pair the index no longer holds — evicted, or quarantined before its
// entity was ever admitted — is never answered from memory.
func TestEntityCacheFollowsTheStore(t *testing.T) {
	a, b := nrrdBody(t, 6), nrrdBody(t, 7)
	ka, kb := wire.ImageKey(a), wire.ImageKey(b)

	t.Run("a memory hit refreshes recency as a disk hit does", func(t *testing.T) {
		cache := openTestCache(t, t.TempDir())
		srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
		c := ts.Client()
		meshOK(t, c, ts.URL, "", a)
		meshOK(t, c, ts.URL, "", b)
		if got := mruKeys(cache); !reflect.DeepEqual(got, []string{kb, ka}) {
			t.Fatalf("after two runs MRU = %.8v", got)
		}
		meshOK(t, c, ts.URL, "", a) // disk hit
		afterDisk := mruKeys(cache)
		meshOK(t, c, ts.URL, "", b) // disk hit: b in front again
		meshOK(t, c, ts.URL, "", a) // memory hit
		if srv.entities.hit.Value() != 1 {
			t.Fatalf("entity hits = %d, want 1: the third ask of a was not a memory hit", srv.entities.hit.Value())
		}
		if got := mruKeys(cache); !reflect.DeepEqual(got, afterDisk) || got[0] != ka {
			t.Fatalf("MRU after a memory hit = %.8v, after a disk hit = %.8v", got, afterDisk)
		}
	})

	t.Run("an evicted pair re-meshes", func(t *testing.T) {
		// A budget of one blob: b's write evicts a.
		sizing := openTestCache(t, t.TempDir())
		_, sts := newTestServer(t, Config{PoolSize: 1, Cache: sizing})
		meshOK(t, sts.Client(), sts.URL, "", a)
		meshOK(t, sts.Client(), sts.URL, "", b)
		var largest int64
		for _, ki := range sizing.KeysMRU() {
			largest = max(largest, ki.Bytes)
		}
		cache, _, err := cachestore.Open(cachestore.Config{Dir: t.TempDir(), MaxBytes: largest + 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cache.Close() })
		srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
		c := ts.Client()

		first, _ := meshOK(t, c, ts.URL, "", a)
		meshOK(t, c, ts.URL, "", a) // disk hit, admitted
		meshOK(t, c, ts.URL, "", a) // memory hit
		if srv.entities.hit.Value() != 1 || srv.entities.stats().Entries != 1 {
			t.Fatalf("setup: entity hits %d, entries %d, want 1 and 1", srv.entities.hit.Value(), srv.entities.stats().Entries)
		}
		meshOK(t, c, ts.URL, "", b)
		if cache.Contains(ka, "") {
			t.Fatal("setup: the store still indexes a after b's write")
		}
		before := readHitLedger(srv, cache)
		again, _ := meshOK(t, c, ts.URL, "", a)
		got := readHitLedger(srv, cache).sub(before)
		// Exactly the parent's cold request: one store miss, one run, and
		// the entity still in memory never looked at.
		want := hitLedger{accepted: 1, completed: 1, runs: 1, storeMisses: 1, recorded: 1}
		if got != want {
			t.Fatalf("asking for an evicted pair moved the ledger by %+v, want %+v", got, want)
		}
		if !bytes.Equal(again, first) {
			t.Fatal("the re-mesh of an evicted pair produced different bytes")
		}
	})

	t.Run("a corrupt blob never admitted is quarantined and re-meshed", func(t *testing.T) {
		dir := t.TempDir()
		cache := openTestCache(t, dir)
		srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
		c := ts.Client()

		restore := faultinject.Enable(faultinject.New(faultinject.Config{
			Seed: 1, Rates: map[faultinject.Point]float64{faultinject.CacheBitFlip: 1},
		}))
		first, _ := meshOK(t, c, ts.URL, "", a) // indexed, but the bytes on disk are flipped
		restore()

		before := readHitLedger(srv, cache)
		again, _ := meshOK(t, c, ts.URL, "", a)
		got := readHitLedger(srv, cache).sub(before)
		// The index lookup found the pair (one hit), the read found the
		// corruption (one miss), and the job ran: nothing corrupt served,
		// nothing admitted.
		want := hitLedger{accepted: 1, completed: 1, runs: 1, storeHits: 1, storeMisses: 1, recorded: 1, entityMisses: 1}
		if got != want {
			t.Fatalf("asking for a corrupt pair moved the ledger by %+v, want %+v", got, want)
		}
		if cs := cache.Stats(); cs.Corrupt != 1 {
			t.Fatalf("corrupt = %d, want 1", cs.Corrupt)
		}
		if q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.snap")); len(q) != 1 {
			t.Fatalf("quarantine holds %d blobs, want 1", len(q))
		}
		if !bytes.Equal(again, first) {
			t.Fatal("the re-mesh after quarantine produced different bytes")
		}
		if st := srv.entities.stats(); st.Entries != 0 {
			t.Fatalf("%d entities in memory, want 0: nothing was ever a verified hit", st.Entries)
		}
	})
}

// TestEntityCacheAdmission: only a second ask admits, an entity over
// the budget is served and not kept, and under a small budget the
// cache evicts least recently used first with exact byte accounting.
func TestEntityCacheAdmission(t *testing.T) {
	t.Run("never-seen images leave it empty", func(t *testing.T) {
		cache := openTestCache(t, t.TempDir())
		srv, ts := newTestServer(t, Config{PoolSize: 2, Cache: cache})
		base := nrrdBody(t, 6)
		for i := 0; i < 12; i++ {
			meshOK(t, ts.Client(), ts.URL, "", freshNRRD(base, 1, i))
		}
		if st := srv.entities.stats(); st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("12 never-seen images left %d entities / %d bytes in memory, want 0 / 0", st.Entries, st.Bytes)
		}
		if n := srv.mRunSeconds.Count(); n != 12 {
			t.Fatalf("runs = %d, want 12", n)
		}
	})

	t.Run("over the budget: served, not kept", func(t *testing.T) {
		cache := openTestCache(t, t.TempDir())
		srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
		srv.entities.budget = 100
		image := nrrdBody(t, 6)
		first, _ := meshOK(t, ts.Client(), ts.URL, "", image)
		for i := 0; i < 3; i++ {
			if body, _ := meshOK(t, ts.Client(), ts.URL, "", image); !bytes.Equal(body, first) {
				t.Fatalf("hit %d served different bytes", i+1)
			}
		}
		if st := srv.entities.stats(); st.Entries != 0 || srv.entities.hit.Value() != 0 {
			t.Fatalf("an over-budget entity was kept: %d entries, %d hits", st.Entries, srv.entities.hit.Value())
		}
		if srv.mCacheServed.Value() != 3 || srv.mRunSeconds.Count() != 1 {
			t.Fatalf("cache-served = %d, runs = %d, want 3 and 1", srv.mCacheServed.Value(), srv.mRunSeconds.Count())
		}
	})

	t.Run("LRU order and byte accounting under eviction", func(t *testing.T) {
		cache := openTestCache(t, t.TempDir())
		srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
		c := ts.Client()
		images := [][]byte{nrrdBody(t, 6), nrrdBody(t, 7), nrrdBody(t, 8)}
		var n [3]int64
		for i, im := range images {
			body, _ := meshOK(t, c, ts.URL, "", im)
			n[i] = int64(len(body))
		}
		// Fits the two largest but not all three, as TestImageCacheLRUBytes
		// sizes its image cache.
		if n[0] > n[1] || n[1] > n[2] {
			t.Fatalf("entity sizes %v are not ascending with the phantom's scale", n)
		}
		srv.entities.budget = n[1] + n[2]
		hit := func(i int) { meshOK(t, c, ts.URL, "", images[i]) }

		hit(0) // disk: admits 0
		hit(1) // disk: admits 1
		hit(0) // memory: 1 is now least recently used
		if h := srv.entities.hit.Value(); h != 1 {
			t.Fatalf("entity hits = %d, want 1", h)
		}
		hit(2) // disk: admits 2, evicting 1
		if st := srv.entities.stats(); st.Bytes != n[0]+n[2] || st.Entries != 2 {
			t.Fatalf("resident %d bytes in %d entries, want %d in 2", st.Bytes, st.Entries, n[0]+n[2])
		}
		if ev := srv.entities.evict.Value(); ev != 1 {
			t.Fatalf("evictions = %d, want 1", ev)
		}
		hit(0)
		if h := srv.entities.hit.Value(); h != 2 {
			t.Fatalf("entity hits = %d, want 2: the recently used entity was evicted", h)
		}
		missesBefore := srv.entities.miss.Value()
		hit(1) // the victim: back to disk, re-admitted
		if m := srv.entities.miss.Value(); m != missesBefore+1 {
			t.Fatalf("entity misses %d -> %d, want one more: the evicted entity was still answered from memory", missesBefore, m)
		}
		// The same numbers on the wire.
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		exp := rec.Body.String()
		if got := metricValue(t, exp, `pi2md_mem_cache_bytes{cache="entity"}`); int64(got) != srv.entities.stats().Bytes {
			t.Errorf("pi2md_mem_cache_bytes{entity} = %v, want %d", got, srv.entities.stats().Bytes)
		}
		if got := metricValue(t, exp, `pi2md_mem_cache_events_total{cache="entity",event="hit"}`); got != 2 {
			t.Errorf("pi2md_mem_cache_events_total{entity,hit} = %v, want 2", got)
		}
		if st := srv.Stats(); st.EntityCache != srv.entities.stats() || st.ImageCache != srv.imgCache.stats() {
			t.Errorf("/v1/stats reports entity %+v image %+v, the caches %+v and %+v",
				st.EntityCache, st.ImageCache, srv.entities.stats(), srv.imgCache.stats())
		}
	})
}

// TestEntityCacheConcurrentHits: eight clients mix formats, matching and
// stale validators over six cached keys while a ninth keeps pushing new
// entities through a budget that holds about three — every 200 carries
// exactly the bytes its pair first meshed to, whichever path served it.
func TestEntityCacheConcurrentHits(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	srv, ts := newTestServer(t, Config{PoolSize: 2, Cache: cache})
	c := ts.Client()

	const keys = 6
	formats := []string{"vtk", "off"}
	base := nrrdBody(t, 6)
	images := make([][]byte, keys)
	wantSHA := make([]map[string]string, keys)
	etags := make([]map[string]string, keys)
	var largest int64
	for i := range images {
		images[i] = nrrdBody(t, 5+i) // six different meshes
		wantSHA[i], etags[i] = map[string]string{}, map[string]string{}
		for _, f := range formats {
			body, etag := meshOK(t, c, ts.URL, "?format="+f, images[i])
			wantSHA[i][f], etags[i][f] = sha(body), etag
			largest = max(largest, int64(len(body)))
		}
	}
	srv.entities.budget = 3 * largest

	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient+1)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perClient; i++ {
				k, f := rng.Intn(keys), formats[rng.Intn(len(formats))]
				req, err := http.NewRequest("POST", ts.URL+"/v1/mesh?format="+f, bytes.NewReader(images[k]))
				if err != nil {
					errs <- err
					return
				}
				wantStatus := http.StatusOK
				switch rng.Intn(3) {
				case 0:
					req.Header.Set("If-None-Match", etags[k][f])
					wantStatus = http.StatusNotModified
				case 1:
					req.Header.Set("If-None-Match", `"0000000000000000-`+f+`"`)
				}
				resp, err := c.Do(req)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode != wantStatus:
					errs <- fmt.Errorf("client %d op %d: status %d, want %d", w, i, resp.StatusCode, wantStatus)
				case wantStatus == http.StatusOK && (sha(body) != wantSHA[k][f] || resp.Header.Get("ETag") != etags[k][f]):
					errs <- fmt.Errorf("client %d op %d: key %d %s served the wrong entity (etag %s)", w, i, k, f, resp.Header.Get("ETag"))
				case wantStatus == http.StatusNotModified && len(body) != 0:
					errs <- fmt.Errorf("client %d op %d: 304 with a %d-byte body", w, i, len(body))
				}
			}
		}(w)
	}
	// The ninth: new keys, each asked for twice so its entity is admitted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			image := freshNRRD(base, 3, i)
			for ask := 0; ask < 2; ask++ {
				resp, err := c.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(image))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("inserter key %d ask %d: status %d", i, ask, resp.StatusCode)
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.entities.stats()
	if st.Bytes > srv.entities.budget || st.Entries < 1 {
		t.Errorf("resident %d bytes in %d entries under a budget of %d", st.Bytes, st.Entries, srv.entities.budget)
	}
	if srv.entities.hit.Value() < 1 || srv.entities.evict.Value() < 1 {
		t.Errorf("entity hits %d, evictions %d: the storm exercised neither", srv.entities.hit.Value(), srv.entities.evict.Value())
	}
	if srv.mFailed.Value() != 0 || srv.mAccepted.Value() != srv.mCompleted.Value() {
		t.Errorf("accepted %d, completed %d, failed %d", srv.mAccepted.Value(), srv.mCompleted.Value(), srv.mFailed.Value())
	}
}
