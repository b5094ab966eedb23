package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestCacheProbeEndpoint: GET /v1/cache/{imageKey}/{variant} is the
// body-less replica read — hits, misses, conditional 304s, key and
// format validation, and path-escaped variants.
func TestCacheProbeEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()
	body := nrrdBody(t, 7)
	key := wire.ImageKey(body)
	get := func(path string, hdr ...string) answer {
		return send(t, client, "GET", ts.URL+path, "", nil, hdr...)
	}

	// Malformed keys are rejected before any cache work.
	for _, bad := range []string{"notakey", strings.Repeat("A", 64), strings.Repeat("a", 63)} {
		if a := get("/v1/cache/" + bad); a.StatusCode != http.StatusBadRequest || a.code != wire.CodeBadRequest {
			t.Fatalf("bad key %q: status %d code %q, want 400 %q", bad, a.StatusCode, a.code, wire.CodeBadRequest)
		}
	}

	// Probing a cold cache is a clean miss.
	if a := get("/v1/cache/" + key); a.StatusCode != http.StatusNotFound || a.code != wire.CodeCacheMiss {
		t.Fatalf("cold probe: status %d code %q, want 404 %q", a.StatusCode, a.code, wire.CodeCacheMiss)
	}

	// Warm the default variant, then probe it.
	meshed, etag := meshOK(t, client, ts.URL, "", body)
	doPin(t, "warm probe", get("/v1/cache/"+key),
		pin{status: 200, etag: etag, ctype: "text/vtk", cacheOnly: "hit", sha: sha(meshed)})

	// A probe that already holds the entity costs a bare 304, stamped as
	// a cache-only hit and counted as one, and a probe naming the other
	// format is served the off entity under its own tag.
	served := srv.mCacheOnlyServed.Value()
	doPin(t, "conditional probe", get("/v1/cache/"+key, "If-None-Match", etag),
		pin{status: 304, etag: etag, cacheOnly: "hit", sha: sha(nil)})
	if got := srv.mCacheOnlyServed.Value(); got != served+1 {
		t.Fatalf("cache_only_served = %d after the 304, want %d", got, served+1)
	}
	off, offTag := meshOK(t, client, ts.URL, "?format=off", body)
	if offTag != strings.TrimSuffix(etag, `-vtk"`)+`-off"` {
		t.Fatalf("off tag %q next to vtk tag %q", offTag, etag)
	}
	offBody := doPin(t, "off probe against the vtk entity", get("/v1/cache/"+key+"?format=off", "If-None-Match", etag),
		pin{status: 200, etag: offTag, ctype: "model/off", cacheOnly: "hit", sha: sha(off)})
	if !bytes.HasPrefix(offBody, []byte("OFF")) {
		t.Fatalf("off probe body starts %.20q", offBody)
	}

	// A bogus format is a 400.
	if a := get("/v1/cache/" + key + "?format=stl"); a.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d, want 400", a.StatusCode)
	}

	// Non-default variants travel path-escaped.
	meshOK(t, client, ts.URL, "?delta=2.5", body)
	spec, err := wire.MeshSpecFromQuery(url.Values{"delta": {"2.5"}})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Variant() == "" {
		t.Fatal("delta knob produced the empty variant; test needs a non-default one")
	}
	if a := get("/v1/cache/" + key + "/" + url.PathEscape(spec.Variant())); a.StatusCode != http.StatusOK {
		t.Fatalf("escaped-variant probe: status %d, want 200", a.StatusCode)
	}
	// The same probe without the variant segment is a different (cold)
	// identity — variants must not bleed into each other.
	if a := get("/v1/cache/" + key + "/" + url.PathEscape("d=9,n=0,re=0,fa=0")); a.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-variant probe: status %d, want 404", a.StatusCode)
	}
}

// TestDrainHandoffEndpoint: POST /v1/drain flips the node to draining
// and answers its MRU cached keys, most recently used first, so a
// router can pre-warm replica routing before ejecting it.
func TestDrainHandoffEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()

	bodyA, bodyB := nrrdBody(t, 7), nrrdBody(t, 8)
	for _, b := range [][]byte{bodyA, bodyB} {
		meshOK(t, client, ts.URL, "", b)
	}

	a := send(t, client, "POST", ts.URL+"/v1/drain", "", nil)
	var ann drainResponse
	if err := json.Unmarshal(a.body, &ann); err != nil {
		t.Fatal(err)
	}
	if a.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", a.StatusCode)
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
	if !srv.draining.Load() {
		t.Fatal("drain announcement did not flip the draining flag")
	}

	// New mesh work is now rejected...
	if a := send(t, client, "POST", ts.URL+"/v1/mesh", octet, nrrdBody(t, 9)); a.StatusCode != http.StatusServiceUnavailable || a.code != wire.CodeDraining {
		t.Fatalf("post-drain mesh: status %d code %q, want 503 %q", a.StatusCode, a.code, wire.CodeDraining)
	}
	// ...but cached reads still serve (the handoff window).
	if a := send(t, client, "GET", ts.URL+"/v1/cache/"+wire.ImageKey(bodyA), "", nil); a.StatusCode != http.StatusOK {
		t.Fatalf("post-drain cache probe: status %d, want 200", a.StatusCode)
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
