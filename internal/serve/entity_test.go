package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
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
		request   func(t *testing.T, c *http.Client, base, format string) answer
	}{
		{"POST /v1/mesh", false, func(t *testing.T, c *http.Client, base, format string) answer {
			return send(t, c, "POST", base+"/v1/mesh?max_elements=500&format="+format, octet, image)
		}},
		{"GET /v1/cache", true, func(t *testing.T, c *http.Client, base, format string) answer {
			return send(t, c, "GET", base+"/v1/cache/"+key+"/"+url.PathEscape(variant)+"?format="+format, "", nil)
		}},
	}
	for _, ep := range endpoints {
		for _, format := range []string{"vtk", "off"} {
			t.Run(ep.name+" "+format, func(t *testing.T) {
				dir := t.TempDir()
				srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: openTestCache(t, dir)})
				client := ts.Client()

				// The miss: a fresh run, which admits nothing.
				meshed := endpoints[0].request(t, client, ts.URL, format).body
				if n := srv.entities.cache.Len(); n != 0 {
					t.Fatalf("a fresh run left %d entities in memory", n)
				}
				blobs, _ := filepath.Glob(filepath.Join(dir, "blobs", "*.snap"))
				if len(blobs) != 1 {
					t.Fatalf("want exactly one blob after one run, found %v", blobs)
				}

				// Hit 1: from disk, encoded, admitted.
				before := ledger(srv)
				diskHit := ep.request(t, client, ts.URL, format)
				if diskHit.StatusCode != http.StatusOK || !bytes.Equal(diskHit.body, meshed) {
					t.Fatalf("disk hit: status %d, body equal to the meshed one: %v", diskHit.StatusCode, bytes.Equal(diskHit.body, meshed))
				}
				want := map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "recorded": 1,
					"store_hits": 1, "store_misses": 0, "mem:entity,hit": 0, "mem:entity,miss": 1,
					"mem_bytes:entity": int64(len(meshed))}
				if ep.cacheOnly {
					want["cache_only_served"] = 1
				}
				wantMoved(t, moved(before, ledger(srv)), want)
				diskRun := recentRuns(srv)

				// Hits 2 and 3: from memory, with the blob gone from its path.
				aside := blobs[0] + ".aside"
				if err := os.Rename(blobs[0], aside); err != nil {
					t.Fatal(err)
				}
				for hit := 2; hit <= 3; hit++ {
					before = ledger(srv)
					memHit := ep.request(t, client, ts.URL, format)
					if memHit.StatusCode != http.StatusOK {
						t.Fatalf("hit %d: status %d", hit, memHit.StatusCode)
					}
					if sha(memHit.body) != sha(diskHit.body) {
						t.Errorf("hit %d: body differs from the disk hit's", hit)
					}
					diskHit.Header.Del("Date")
					memHit.Header.Del("Date")
					if !reflect.DeepEqual(memHit.Header, diskHit.Header) {
						t.Errorf("hit %d: headers differ from the disk hit's:\n mem  %v\n disk %v", hit, memHit.Header, diskHit.Header)
					}
					if memHit.ContentLength != int64(len(diskHit.body)) {
						t.Errorf("hit %d: Content-Length %d, want %d", hit, memHit.ContentLength, len(diskHit.body))
					}
					// The same movement, except that the entity was found.
					want["mem:entity,hit"], want["mem:entity,miss"], want["mem_bytes:entity"] = 1, 0, 0
					wantMoved(t, moved(before, ledger(srv)), want)
					runs := recentRuns(srv)
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
	a := send(t, c, "POST", base+"/v1/mesh"+query, octet, image)
	if a.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/mesh%s: status %d: %.200s", query, a.StatusCode, a.body)
	}
	return a.body, a.Header.Get("ETag")
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
		srv, ts := newTestServer(t, Config{PoolSize: 1})
		cache := srv.cache
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
		sizing, sts := newTestServer(t, Config{PoolSize: 1})
		meshOK(t, sts.Client(), sts.URL, "", a)
		meshOK(t, sts.Client(), sts.URL, "", b)
		var largest int64
		for _, ki := range sizing.cache.KeysMRU() {
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
		if srv.entities.hit.Value() != 1 || srv.entities.cache.Len() != 1 {
			t.Fatalf("setup: entity hits %d, entries %d, want 1 and 1", srv.entities.hit.Value(), srv.entities.cache.Len())
		}
		meshOK(t, c, ts.URL, "", b)
		if cached(cache, ka, "") {
			t.Fatal("setup: the store still indexes a after b's write")
		}
		before := ledger(srv)
		again, _ := meshOK(t, c, ts.URL, "", a)
		// Exactly a cold request: one store miss, one run, and the entity
		// still in memory never looked at.
		wantMoved(t, moved(before, ledger(srv)), map[string]int64{"accepted": 1, "completed": 1, "recorded": 1,
			"store_hits": 0, "store_misses": 1, "mem:entity,hit": 0, "mem:entity,miss": 0})
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

		before := ledger(srv)
		again, _ := meshOK(t, c, ts.URL, "", a)
		// The index lookup found the pair (one hit), the read found the
		// corruption (one miss), and the job ran: nothing corrupt served,
		// nothing admitted.
		wantMoved(t, moved(before, ledger(srv)), map[string]int64{"accepted": 1, "completed": 1, "recorded": 1,
			"store_hits": 1, "store_misses": 1, "mem:entity,hit": 0, "mem:entity,miss": 1, "mem_bytes:entity": 0})
		if cs := cache.Stats(); cs.Corrupt != 1 {
			t.Fatalf("corrupt = %d, want 1", cs.Corrupt)
		}
		if q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.snap")); len(q) != 1 {
			t.Fatalf("quarantine holds %d blobs, want 1", len(q))
		}
		if !bytes.Equal(again, first) {
			t.Fatal("the re-mesh after quarantine produced different bytes")
		}
		if n := srv.entities.cache.Len(); n != 0 {
			t.Fatalf("%d entities in memory, want 0: nothing was ever a verified hit", n)
		}
	})
}

// TestEntityCacheAdmission: only a second ask admits, an entity over
// the budget is served and not kept, and under a small budget the
// cache evicts least recently used first with exact byte accounting.
func TestEntityCacheAdmission(t *testing.T) {
	t.Run("never-seen images leave it empty", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{PoolSize: 2})
		base := nrrdBody(t, 6)
		for i := 0; i < 12; i++ {
			meshOK(t, ts.Client(), ts.URL, "", freshNRRD(base, 1, i))
		}
		if n, b := srv.entities.cache.Len(), srv.entities.cache.Bytes(); n != 0 || b != 0 {
			t.Fatalf("12 never-seen images left %d entities / %d bytes in memory, want 0 / 0", n, b)
		}
		if n := srv.mRunSeconds.Count(); n != 12 {
			t.Fatalf("runs = %d, want 12", n)
		}
	})

	t.Run("over the budget: served, not kept", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{PoolSize: 1})
		srv.entities.cache.MaxBytes = 100
		image := nrrdBody(t, 6)
		first, _ := meshOK(t, ts.Client(), ts.URL, "", image)
		for i := 0; i < 3; i++ {
			if body, _ := meshOK(t, ts.Client(), ts.URL, "", image); !bytes.Equal(body, first) {
				t.Fatalf("hit %d served different bytes", i+1)
			}
		}
		if n := srv.entities.cache.Len(); n != 0 || srv.entities.hit.Value() != 0 {
			t.Fatalf("an over-budget entity was kept: %d entries, %d hits", n, srv.entities.hit.Value())
		}
		if srv.mCacheServed.Value() != 3 || srv.mRunSeconds.Count() != 1 {
			t.Fatalf("cache-served = %d, runs = %d, want 3 and 1", srv.mCacheServed.Value(), srv.mRunSeconds.Count())
		}
	})

	t.Run("LRU order and byte accounting under eviction", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{PoolSize: 1})
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
		srv.entities.cache.MaxBytes = n[1] + n[2]
		hit := func(i int) { meshOK(t, c, ts.URL, "", images[i]) }

		hit(0) // disk: admits 0
		hit(1) // disk: admits 1
		hit(0) // memory: 1 is now least recently used
		if h := srv.entities.hit.Value(); h != 1 {
			t.Fatalf("entity hits = %d, want 1", h)
		}
		hit(2) // disk: admits 2, evicting 1
		if b, e := srv.entities.cache.Bytes(), srv.entities.cache.Len(); b != n[0]+n[2] || e != 2 {
			t.Fatalf("resident %d bytes in %d entries, want %d in 2", b, e, n[0]+n[2])
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
		l := ledger(srv)
		for name, c := range map[string]int64{"entity": srv.entities.cache.Bytes(), "image": srv.imgCache.cache.Bytes()} {
			if got := l["mem_bytes:"+name]; got != c {
				t.Errorf("pi2md_mem_cache_bytes{%s} = %d, want %d", name, got, c)
			}
		}
		if got := l["mem:entity,hit"]; got != 2 {
			t.Errorf("pi2md_mem_cache_events_total{entity,hit} = %d, want 2", got)
		}
		for _, c := range []string{"image", "entity", "upload"} {
			if _, ok := l["mem:"+c+",evict"]; !ok {
				t.Errorf("/metrics lacks the %s evict series", c)
			}
		}
	})
}

// TestEntityCacheConcurrentHits: eight clients mix formats, matching and
// stale validators over six cached keys while a ninth keeps pushing new
// entities through a budget that holds about three — every 200 carries
// exactly the bytes its pair first meshed to, whichever path served it.
func TestEntityCacheConcurrentHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2})
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
	srv.entities.cache.MaxBytes = 3 * largest

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
				var hdr []string
				wantStatus := http.StatusOK
				switch rng.Intn(3) {
				case 0:
					hdr, wantStatus = []string{"If-None-Match", etags[k][f]}, http.StatusNotModified
				case 1:
					hdr = []string{"If-None-Match", `"0000000000000000-` + f + `"`}
				}
				a := send(t, c, "POST", ts.URL+"/v1/mesh?format="+f, octet, images[k], hdr...)
				switch {
				case a.StatusCode != wantStatus:
					errs <- fmt.Errorf("client %d op %d: status %d, want %d", w, i, a.StatusCode, wantStatus)
				case wantStatus == http.StatusOK && (sha(a.body) != wantSHA[k][f] || a.Header.Get("ETag") != etags[k][f]):
					errs <- fmt.Errorf("client %d op %d: key %d %s served the wrong entity (etag %s)", w, i, k, f, a.Header.Get("ETag"))
				case wantStatus == http.StatusNotModified && len(a.body) != 0:
					errs <- fmt.Errorf("client %d op %d: 304 with a %d-byte body", w, i, len(a.body))
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
				if a := send(t, c, "POST", ts.URL+"/v1/mesh", octet, image); a.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("inserter key %d ask %d: status %d", i, ask, a.StatusCode)
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if b, n := srv.entities.cache.Bytes(), srv.entities.cache.Len(); b > srv.entities.cache.MaxBytes || n < 1 {
		t.Errorf("resident %d bytes in %d entries under a budget of %d", b, n, srv.entities.cache.MaxBytes)
	}
	if srv.entities.hit.Value() < 1 || srv.entities.evict.Value() < 1 {
		t.Errorf("entity hits %d, evictions %d: the storm exercised neither", srv.entities.hit.Value(), srv.entities.evict.Value())
	}
	if srv.mFailed.Value() != 0 || srv.mAccepted.Value() != srv.mCompleted.Value() {
		t.Errorf("accepted %d, completed %d, failed %d", srv.mAccepted.Value(), srv.mCompleted.Value(), srv.mFailed.Value())
	}
}
