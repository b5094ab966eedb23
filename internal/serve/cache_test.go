package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cachestore"
	"repro/internal/faultinject"
	"repro/internal/wire"
)

// openTestCache opens a store in a temp dir and closes it with the test.
func openTestCache(t *testing.T, dir string) *cachestore.Store {
	t.Helper()
	c, _, err := cachestore.Open(cachestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPanickedRunNotCached: a run that met a panic aborts, so its
// partial mesh is neither answered nor cached; the next identical
// request runs afresh and is cached.
func TestPanickedRunNotCached(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
	client := ts.Client()
	body := nrrdBody(t, 12)
	key := wire.ImageKey(body)

	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{faultinject.WorkerPanic: 1},
		After:    map[faultinject.Point]int64{faultinject.WorkerPanic: 20}, // clear the bootstrap
		MaxFires: map[faultinject.Point]int64{faultinject.WorkerPanic: 1},
	}))
	resp, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	restore()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("a panicked run answered %d, want a 5xx", resp.StatusCode)
	}
	if code, _ := readEnvelope(t, resp.Body); code == "" {
		t.Fatal("a panicked run's answer carries no error code")
	}
	if cache.Contains(key, "") {
		t.Fatal("the panicked run's partial mesh was cached")
	}

	runs := srv.mRunSeconds.Count()
	again, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, again.Body)
	again.Body.Close()
	if again.StatusCode != http.StatusOK {
		t.Fatalf("the retry answered %d", again.StatusCode)
	}
	if n := srv.mRunSeconds.Count(); n != runs+1 {
		t.Errorf("the retry made %d runs, want 1", n-runs)
	}
	if !cache.Contains(key, "") {
		t.Error("the retry's mesh was not cached")
	}
}

// TestCacheHitShortCircuitsAdmission: a repeated request is answered
// from the persistent cache without consuming a pool session, a queue
// slot, or a run — the short-circuit the restart economics depend on.
func TestCacheHitShortCircuitsAdmission(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
	client := ts.Client()
	body := nrrdBody(t, 7)

	first, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	firstBytes, _ := io.ReadAll(first.Body)
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", first.StatusCode)
	}
	if first.Header.Get("ETag") == "" {
		t.Fatal("meshed response carries no ETag")
	}
	checkoutsBefore := srv.pool.Stats().Checkouts
	runsBefore := srv.mRunSeconds.Count()
	parsesBefore, parseHitsBefore := srv.imgCache.miss.Value(), srv.imgCache.hit.Value()

	second, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	secondBytes, _ := io.ReadAll(second.Body)
	second.Body.Close()
	if second.StatusCode != http.StatusOK {
		t.Fatalf("repeat request: %d", second.StatusCode)
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatal("cache-served body differs from the meshed one")
	}
	if got := second.Header.Get("ETag"); got != first.Header.Get("ETag") {
		t.Fatalf("ETag changed across the cache hit: %q vs %q", got, first.Header.Get("ETag"))
	}
	if n := srv.pool.Stats().Checkouts; n != checkoutsBefore {
		t.Fatalf("cache hit consumed a session lease (checkouts %d -> %d)", checkoutsBefore, n)
	}
	if n := srv.mRunSeconds.Count(); n != runsBefore {
		t.Fatal("cache hit triggered a meshing run")
	}
	if srv.mCacheServed.Value() != 1 {
		t.Fatalf("cache-served counter = %d, want 1", srv.mCacheServed.Value())
	}
	// A hit needs the upload's hash, not its voxels: it neither parses
	// the NRRD nor touches the parsed-image LRU.
	if m, h := srv.imgCache.miss.Value(), srv.imgCache.hit.Value(); m != parsesBefore || h != parseHitsBefore {
		t.Fatalf("cache hit decoded its upload: image-cache misses %d -> %d, hits %d -> %d",
			parsesBefore, m, parseHitsBefore, h)
	}
	// The invariant the chaos soak asserts, in miniature.
	if srv.mAccepted.Value() != srv.mCompleted.Value() {
		t.Fatalf("accepted %d != completed %d", srv.mAccepted.Value(), srv.mCompleted.Value())
	}
	// Variants are distinct cache identities: a different quality knob
	// must mesh, not hit.
	third, err := client.Post(ts.URL+"/v1/mesh?max_elements=500", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	third.Body.Close()
	if third.StatusCode != http.StatusOK {
		t.Fatalf("variant request: %d", third.StatusCode)
	}
	if srv.mCacheServed.Value() != 1 {
		t.Fatal("a different variant was served from the wrong cache entry")
	}
}

// TestColdMissProbesCacheOnce: a request the cache cannot answer looks
// it up once — one index probe, one ENOENT at the key's blob path —
// with the brownout controller on, as the daemon runs it. An idle
// controller rewrites nothing, so there is no second identity to look
// up.
func TestColdMissProbesCacheOnce(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	_, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache, Brownout: true})
	if code, out := post(t, ts.Client(), ts.URL+"/v1/mesh", nrrdBody(t, 7)); code != http.StatusOK {
		t.Fatalf("cold mesh: status %d: %s", code, out)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("one cold request: cache misses = %d, writes = %d, want 1 and 1", st.Misses, st.Writes)
	}
}

// TestCacheSurvivesRestart: a new Server over the same cache directory
// answers a repeated request from disk — no session lease, byte-equal
// body — which is the warm-start the e2e restart test asserts over a
// real kill -9.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := nrrdBody(t, 7)

	cache1, _, err := cachestore.Open(cachestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestServer(t, Config{PoolSize: 1, Cache: cache1})
	resp, err := ts1.Client().Post(ts1.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	meshed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("first life: %d etag=%q", resp.StatusCode, etag)
	}
	_ = srv1
	ts1.Close()
	// An unclean end: the store is abandoned without Close, like kill -9
	// (the blob was fsynced and renamed into place by Put, and the blobs
	// are all the durable state there is).

	cache2, rep, err := cachestore.Open(cachestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache2.Close() })
	if cache2.Len() == 0 {
		t.Fatalf("no entries survived the restart (fsck %+v)", rep)
	}
	srv2, ts2 := newTestServer(t, Config{PoolSize: 1, Cache: cache2})
	again, err := ts2.Client().Post(ts2.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(again.Body)
	again.Body.Close()
	if again.StatusCode != http.StatusOK {
		t.Fatalf("second life: %d", again.StatusCode)
	}
	if !bytes.Equal(meshed, served) {
		t.Fatal("restarted server served different bytes for the same request")
	}
	if got := again.Header.Get("ETag"); got != etag {
		t.Fatalf("ETag changed across restart: %q vs %q", got, etag)
	}
	if n := srv2.pool.Stats().Checkouts; n != 0 {
		t.Fatalf("restart warm request consumed %d session leases, want 0", n)
	}
}

// TestConditionalGet: a request carrying the previous response's ETag
// in If-None-Match is answered 304 from the index alone.
func TestConditionalGet(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
	client := ts.Client()
	body := nrrdBody(t, 7)

	resp, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag to validate against")
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/mesh", bytes.NewReader(body))
	req.Header.Set("If-None-Match", etag)
	cond, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	condBody, _ := io.ReadAll(cond.Body)
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional request: %d, want 304", cond.StatusCode)
	}
	if len(condBody) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(condBody))
	}
	if got := cond.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q, want %q", got, etag)
	}
	// The 304 came from the index: no lease, no run, no blob read.
	if n := srv.mRunSeconds.Count(); n != 1 {
		t.Fatalf("runs = %d after the 304, want 1", n)
	}

	// A stale validator re-serves the full body (200, from cache) — and
	// looks the pair up in the store once, whether the body then comes
	// from the blob (the first ask) or from memory (the second).
	for wantEntityHits, path := range []string{"disk", "memory"} {
		hitsBefore, entityHitsBefore := cache.Stats().Hits, srv.entities.hit.Value()
		req2, _ := http.NewRequest("POST", ts.URL+"/v1/mesh", bytes.NewReader(body))
		req2.Header.Set("If-None-Match", `"0000000000000000-vtk"`)
		full, err := client.Do(req2)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, full.Body)
		full.Body.Close()
		if full.StatusCode != http.StatusOK {
			t.Fatalf("stale validator (%s): %d, want 200", path, full.StatusCode)
		}
		if got := cache.Stats().Hits - hitsBefore; got != 1 {
			t.Fatalf("stale validator (%s): store hits rose by %d, want exactly 1 per request", path, got)
		}
		if got := srv.entities.hit.Value() - entityHitsBefore; got != int64(wantEntityHits) {
			t.Fatalf("stale validator (%s): entity hits rose by %d, want %d", path, got, wantEntityHits)
		}
	}

	// The format is part of the entity: the VTK tag must not validate an
	// OFF response.
	req3, _ := http.NewRequest("POST", ts.URL+"/v1/mesh?format=off", bytes.NewReader(body))
	req3.Header.Set("If-None-Match", etag)
	off, err := client.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, off.Body)
	off.Body.Close()
	if off.StatusCode != http.StatusOK {
		t.Fatalf("cross-format validator answered %d, want 200", off.StatusCode)
	}
}

// flipVoxel returns a copy of a raw NRRD with the middle voxel's byte
// changed.
func flipVoxel(t *testing.T, nrrd []byte) []byte {
	t.Helper()
	data := bytes.Index(nrrd, []byte("\n\n")) + 2
	if data < 2 || data >= len(nrrd) {
		t.Fatal("no attached voxel data")
	}
	f := bytes.Clone(nrrd)
	f[data+(len(f)-data)/2] ^= 1
	return f
}

// TestImageKeyFollowsTheBytes: the upload memo answers repeats, and a
// copy with one voxel byte flipped is a new image — a new ETag and
// exactly one more run — which the old tag does not validate, whether
// the memo has seen the copy before or not.
func TestImageKeyFollowsTheBytes(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
	client := ts.Client()
	image := nrrdBody(t, 7)
	uploadHits := func() float64 {
		var b strings.Builder
		srv.Registry().WritePrometheus(&b)
		return metricValue(t, b.String(), `pi2md_mem_cache_events_total{cache="upload",event="hit"}`)
	}

	_, tag := meshOK(t, client, ts.URL, "", image)
	for i := 0; i < 2; i++ {
		if _, again := meshOK(t, client, ts.URL, "", image); again != tag {
			t.Fatalf("repeat %d: ETag %s, want %s", i+1, again, tag)
		}
	}
	if uploadHits() != 1 || srv.mRunSeconds.Count() != 1 {
		t.Fatalf("three POSTs of one image: %v upload-memo hits, %d runs; want 1 and 1", uploadHits(), srv.mRunSeconds.Count())
	}

	flipped := flipVoxel(t, image)
	if _, newTag := meshOK(t, client, ts.URL, "", flipped); newTag == tag || srv.mRunSeconds.Count() != 2 {
		t.Fatalf("flipped copy: ETag %s (old %s), %d runs; want a new tag and 2 runs", newTag, tag, srv.mRunSeconds.Count())
	}
	for i := 0; i < 2; i++ {
		resp, _ := fetch(t, client, pinReq(t, "POST", ts.URL+"/v1/mesh", "application/octet-stream", flipped, "If-None-Match", tag))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("old tag on the flipped copy (ask %d): status %d, want 200", i+1, resp.StatusCode)
		}
	}
	if uploadHits() != 2 || srv.mRunSeconds.Count() != 2 || srv.Stats().UploadCache.Entries != 2 {
		t.Fatalf("after the flipped copy: %v upload-memo hits, %d runs, %d memo entries; want 2, 2, 2",
			uploadHits(), srv.mRunSeconds.Count(), srv.Stats().UploadCache.Entries)
	}
}

// TestEtagMatch pins the If-None-Match comparison rules.
func TestEtagMatch(t *testing.T) {
	e := wire.EntityTag("00c0ffee00c0ffee", "vtk")
	cases := []struct {
		header string
		want   bool
	}{
		{e, true},
		{"*", true},
		{`W/` + e, true},
		{`"other"` + ", " + e, true},
		{`"other"`, false},
		{wire.EntityTag("00c0ffee00c0ffee", "off"), false},
		{"", false},
	}
	for _, c := range cases {
		if got := wire.ETagMatch(c.header, e); got != c.want {
			t.Errorf("wire.ETagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestCacheWriteFailureServesEveryRequest: with the disk refusing every
// write, requests keep succeeding and nothing is cached, so each repeat
// re-meshes; every refusal shows on the write-error counter.
func TestCacheWriteFailureServesEveryRequest(t *testing.T) {
	cache, _, err := cachestore.Open(cachestore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
	client := ts.Client()

	in := faultinject.New(faultinject.Config{
		Seed:  7,
		Rates: map[faultinject.Point]float64{faultinject.CacheWriteFail: 1},
	})
	restore := faultinject.Enable(in)
	defer restore()

	body := nrrdBody(t, 7)
	for i := 0; i < 3; i++ {
		resp, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d under a failing disk: %d", i, resp.StatusCode)
		}
	}
	if n := srv.mRunSeconds.Count(); n != 3 {
		t.Fatalf("runs = %d, want 3 (a refused write caches nothing)", n)
	}
	rec := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !bytes.Contains(rec.Body.Bytes(), []byte("pi2md_cache_write_errors_total 3")) {
		t.Fatal("metrics do not report pi2md_cache_write_errors_total 3")
	}
}
