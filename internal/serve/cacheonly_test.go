package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/wire"
)

// readEnvelope decodes the shared error envelope.
func readEnvelope(t *testing.T, body io.Reader) (code, reason string) {
	t.Helper()
	var env struct {
		Error struct {
			Code   string `json:"code"`
			Reason string `json:"reason"`
		} `json:"error"`
	}
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	return env.Error.Code, env.Error.Reason
}

// TestCacheOnlyFastPath: the cache-only read, GET /v1/cache/{key},
// answers straight from the result cache — a hit sends the cached entity
// without a session lease or a run, a miss is 404 cache_miss without
// queueing — and keeps working while the node drains.
func TestCacheOnlyFastPath(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
	client := ts.Client()
	body := nrrdBody(t, 7)

	read := func() *http.Response {
		t.Helper()
		resp, err := client.Get(ts.URL + "/v1/cache/" + wire.ImageKey(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Cold cache: cache-only is a 404 cache_miss, not a mesh run.
	checkoutsBefore := srv.pool.Stats().Checkouts
	resp := read()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold cache-only: status %d, want 404", resp.StatusCode)
	}
	code, reason := readEnvelope(t, resp.Body)
	resp.Body.Close()
	if code != wire.CodeCacheMiss || reason == "" {
		t.Fatalf("cold cache-only envelope: code=%q reason=%q, want %q", code, reason, wire.CodeCacheMiss)
	}
	if got := srv.pool.Stats().Checkouts; got != checkoutsBefore {
		t.Fatalf("cache-only miss consumed a session lease (%d -> %d)", checkoutsBefore, got)
	}
	if srv.mCacheOnlyMiss.Value() != 1 {
		t.Fatalf("cache_only_miss = %d, want 1", srv.mCacheOnlyMiss.Value())
	}

	// Warm the cache with one real mesh.
	resp, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	meshed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming mesh: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("meshed response carries no ETag")
	}

	// Warm cache: cache-only serves the identical entity without a run.
	checkoutsBefore = srv.pool.Stats().Checkouts
	runsBefore := srv.mRunSeconds.Count()
	resp = read()
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm cache-only: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(wire.CacheOnlyHeader); got != "hit" {
		t.Fatalf("%s = %q, want \"hit\"", wire.CacheOnlyHeader, got)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("cache-only ETag %q differs from meshed %q", got, etag)
	}
	if !bytes.Equal(served, meshed) {
		t.Fatal("cache-only body differs from the meshed one")
	}
	if got := srv.pool.Stats().Checkouts; got != checkoutsBefore {
		t.Fatalf("cache-only hit consumed a session lease (%d -> %d)", checkoutsBefore, got)
	}
	if got := srv.mRunSeconds.Count(); got != runsBefore {
		t.Fatal("cache-only hit triggered a meshing run")
	}
	if srv.mCacheOnlyServed.Value() != 1 {
		t.Fatalf("cache_only_served = %d, want 1", srv.mCacheOnlyServed.Value())
	}

	// A draining node stays a read replica: readyz flips to 503 but the
	// cache-only path keeps serving — that is the window the router's
	// replica reads depend on.
	srv.AnnounceDrain(0)
	rz, err := client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rz.Body)
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", rz.StatusCode)
	}
	resp = read()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-only while draining: status %d, want 200", resp.StatusCode)
	}
}

// TestCacheProbeEndpoint: GET /v1/cache/{imageKey}/{variant} is the
// body-less replica read — hits, misses, conditional 304s, key and
// format validation, and path-escaped variants.
func TestCacheProbeEndpoint(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
	client := ts.Client()
	body := nrrdBody(t, 7)
	key := wire.ImageKey(body)

	get := func(path, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Malformed keys are rejected before any cache work.
	for _, bad := range []string{"notakey", strings.Repeat("A", 64), strings.Repeat("a", 63)} {
		resp := get("/v1/cache/"+bad, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad key %q: status %d, want 400", bad, resp.StatusCode)
		}
		code, _ := readEnvelope(t, resp.Body)
		resp.Body.Close()
		if code != wire.CodeBadRequest {
			t.Fatalf("bad key envelope code %q, want %q", code, wire.CodeBadRequest)
		}
	}

	// Probing a cold cache is a clean miss.
	resp := get("/v1/cache/"+key, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold probe: status %d, want 404", resp.StatusCode)
	}
	code, _ := readEnvelope(t, resp.Body)
	resp.Body.Close()
	if code != wire.CodeCacheMiss {
		t.Fatalf("cold probe envelope code %q, want %q", code, wire.CodeCacheMiss)
	}

	// Warm the default variant, then probe it.
	mresp, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	meshed, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("warming mesh: status %d", mresp.StatusCode)
	}
	etag := mresp.Header.Get("ETag")

	resp = get("/v1/cache/"+key, "")
	probed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm probe: status %d", resp.StatusCode)
	}
	if resp.Header.Get(wire.CacheOnlyHeader) != "hit" || resp.Header.Get("ETag") != etag {
		t.Fatalf("warm probe headers: %s=%q ETag=%q, want hit/%q",
			wire.CacheOnlyHeader, resp.Header.Get(wire.CacheOnlyHeader), resp.Header.Get("ETag"), etag)
	}
	if !bytes.Equal(probed, meshed) {
		t.Fatal("probe body differs from the meshed one")
	}

	// A probe that already holds the entity costs a 304, not a body.
	resp = get("/v1/cache/"+key, etag)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("conditional probe: status %d body %d bytes, want bare 304", resp.StatusCode, len(b))
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("304 probe ETag %q, want %q", resp.Header.Get("ETag"), etag)
	}

	// Pinned in full: the 304 is stamped as a cache-only hit and counted
	// as one, and a probe naming the other format is served the off
	// entity under its own tag.
	served := srv.mCacheOnlyServed.Value()
	doPin(t, client, "conditional probe", pinReq(t, "GET", ts.URL+"/v1/cache/"+key, "", nil, "If-None-Match", etag),
		pin{status: 304, etag: etag, cacheOnly: "hit", sha: sha(nil)})
	if got := srv.mCacheOnlyServed.Value(); got != served+1 {
		t.Fatalf("cache_only_served = %d after the 304, want %d", got, served+1)
	}
	offTag := strings.TrimSuffix(etag, `-vtk"`) + `-off"`
	offBody := doPin(t, client, "off probe against the vtk entity", pinReq(t, "GET", ts.URL+"/v1/cache/"+key+"?format=off", "", nil, "If-None-Match", etag),
		pin{status: 200, etag: offTag, ctype: "model/off", cacheOnly: "hit", sha: sha(meshedOff(t, client, ts.URL, body))})
	if !bytes.HasPrefix(offBody, []byte("OFF")) {
		t.Fatalf("off probe body starts %.20q", offBody)
	}

	// The format is part of the entity: an off probe of a vtk-tagged
	// validator must not 304, and a bogus format is a 400.
	resp = get("/v1/cache/"+key+"?format=off", etag)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		t.Fatal("off-format probe validated a vtk entity tag")
	}
	resp = get("/v1/cache/"+key+"?format=stl", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d, want 400", resp.StatusCode)
	}

	// Non-default variants travel path-escaped.
	mreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/mesh?delta=2.5", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	mresp, err = client.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("variant mesh: status %d", mresp.StatusCode)
	}
	spec, err := wire.MeshSpecFromQuery(url.Values{"delta": {"2.5"}})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Variant() == "" {
		t.Fatal("delta knob produced the empty variant; test needs a non-default one")
	}
	resp = get("/v1/cache/"+key+"/"+url.PathEscape(spec.Variant()), "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("escaped-variant probe: status %d, want 200", resp.StatusCode)
	}
	// The same probe without the variant segment is a different (cold)
	// identity — variants must not bleed into each other.
	resp = get("/v1/cache/"+key+"/"+url.PathEscape("d=9,n=0,re=0,fa=0"), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-variant probe: status %d, want 404", resp.StatusCode)
	}
}

// meshedOff fetches the off encoding of body's mesh through /v1/mesh.
func meshedOff(t *testing.T, c *http.Client, base string, body []byte) []byte {
	t.Helper()
	code, out := post(t, c, base+"/v1/mesh?format=off", body)
	if code != http.StatusOK {
		t.Fatalf("off mesh: status %d: %s", code, out)
	}
	return out
}

// TestDrainHandoffEndpoint: POST /v1/drain flips the node to draining
// and answers its MRU cached keys, most recently used first, so a
// router can pre-warm replica routing before ejecting it.
func TestDrainHandoffEndpoint(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache})
	client := ts.Client()

	bodyA, bodyB := nrrdBody(t, 7), nrrdBody(t, 8)
	for _, b := range [][]byte{bodyA, bodyB} {
		resp, err := client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warming mesh: status %d", resp.StatusCode)
		}
	}

	resp, err := client.Post(ts.URL+"/v1/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ann drainResponse
	if err := json.NewDecoder(resp.Body).Decode(&ann); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	if !ann.Draining || ann.NodeID == "" {
		t.Fatalf("drain response %+v, want draining with a node id", ann)
	}
	if len(ann.Keys) != 2 {
		t.Fatalf("drain announced %d keys, want 2", len(ann.Keys))
	}
	// MRU first: bodyB meshed last.
	if ann.Keys[0].ImageKey != wire.ImageKey(bodyB) || ann.Keys[1].ImageKey != wire.ImageKey(bodyA) {
		t.Fatalf("drain keys out of MRU order: %v", ann.Keys)
	}
	for _, k := range ann.Keys {
		if !wire.ValidImageKey(k.ImageKey) || k.ETag == "" {
			t.Fatalf("drain key %+v malformed", k)
		}
	}
	if !srv.Draining() {
		t.Fatal("drain announcement did not flip the draining flag")
	}

	// New mesh work is now rejected...
	resp, err = client.Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(nrrdBody(t, 9)))
	if err != nil {
		t.Fatal(err)
	}
	code, _ := readEnvelope(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || code != wire.CodeDraining {
		t.Fatalf("post-drain mesh: status %d code %q, want 503 %q", resp.StatusCode, code, wire.CodeDraining)
	}
	// ...but cached reads still serve (the handoff window).
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/cache/"+wire.ImageKey(bodyA), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain cache probe: status %d, want 200", resp.StatusCode)
	}
}

// TestValidImageKey: the key validator accepts exactly the SHA-256
// lowercase-hex shape.
func TestValidImageKey(t *testing.T) {
	if !wire.ValidImageKey(wire.ImageKey([]byte("x"))) {
		t.Fatal("real image key rejected")
	}
	for _, bad := range []string{
		"", "abc",
		strings.Repeat("a", 63), strings.Repeat("a", 65),
		strings.Repeat("A", 64), strings.Repeat("g", 64),
		strings.Repeat("a", 32) + " " + strings.Repeat("a", 31),
	} {
		if wire.ValidImageKey(bad) {
			t.Fatalf("wire.ValidImageKey(%q) = true, want false", bad)
		}
	}
}
