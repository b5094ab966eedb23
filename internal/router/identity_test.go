package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cachestore"
	"repro/internal/img"
	"repro/internal/serve"
	"repro/internal/wire"
)

// pi2md is one real backend: a server over its own result cache in dir,
// served (through wrap, when given) by ts.
type pi2md struct {
	srv   *serve.Server
	store *cachestore.Store
	dir   string
	ts    *httptest.Server
}

// series reads one unlabelled series off the node's exposition.
func (b *pi2md) series(name string) int64 {
	var out strings.Builder
	b.srv.Registry().WritePrometheus(&out)
	for _, line := range strings.Split(out.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return -1
}

// newPi2mdFleet starts n real pi2md nodes from cfg, each over a fresh
// result cache, a pool of one and one mesher worker unless cfg says
// otherwise, and drains them with the test.
func newPi2mdFleet(t *testing.T, n int, cfg serve.Config, wrap func(http.Handler) http.Handler) []*pi2md {
	t.Helper()
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 1
	}
	if cfg.Session.Workers == 0 {
		cfg.Session.Workers = 1
	}
	fleet := make([]*pi2md, n)
	for i := range fleet {
		b := &pi2md{dir: t.TempDir()}
		var err error
		if b.store, _, err = cachestore.Open(cachestore.Config{Dir: b.dir}); err != nil {
			t.Fatal(err)
		}
		cfg.Cache = b.store
		if b.srv, err = serve.NewServer(cfg); err != nil {
			t.Fatal(err)
		}
		h := b.srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		b.ts = httptest.NewServer(h)
		t.Cleanup(func() {
			b.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			b.srv.Drain(ctx)
			b.store.Close()
		})
		fleet[i] = b
	}
	return fleet
}

func sphereNRRD(t *testing.T, scale int) []byte {
	t.Helper()
	var nrrd bytes.Buffer
	if err := img.WriteNRRD(&nrrd, img.SpherePhantom(scale)); err != nil {
		t.Fatal(err)
	}
	return nrrd.Bytes()
}

// TestTiersNameRequestsIdentically: for every upload surface, the
// (image key, variant, format) planRoute derives is the one the backend
// cached the result under. Each row is POSTed through a router to a real
// pi2md with a cache; then the router's own cache probe for that row's
// plan must come back a cache-only hit — a probe under any other name is
// a 404. A spec the backend rejects must reach it and come back as its
// 400, not a router error.
func TestTiersNameRequestsIdentically(t *testing.T) {
	b := newPi2mdFleet(t, 1, serve.Config{}, nil)[0]
	g := routeTo(t, Config{}, b.ts.URL)
	image := sphereNRRD(t, 16)
	withSpec, withSpecType := multipartUpload(image, `{"min_facet_angle": 20, "format": "off"}`)
	noSpec, noSpecType := multipartUpload(image, "")
	sim, simType := multipartUpload(image, `{"mesh": {"max_radius_edge": 3}, "dirichlet": [{"value": 0}], "source": {"uniform": 1}}`)
	badSpec, badSpecType := multipartUpload(image, `{"delta": -1}`)

	for _, row := range []struct {
		name, path, ctype string
		body              []byte
		want              int
	}{
		{"raw body + query knobs", "/v1/mesh?max_radius_edge=2.5&format=off", octets, image, 200},
		{"multipart with spec", "/v1/mesh?max_radius_edge=9", withSpecType, withSpec, 200},
		{"multipart without spec", "/v1/mesh?max_elements=50000", noSpecType, noSpec, 200},
		{"simulate multipart", "/v1/simulate", simType, sim, 200},
		{"malformed spec", "/v1/mesh", badSpecType, badSpec, 400},
	} {
		a := g.post(row.path, row.ctype, row.body)
		if a.StatusCode != row.want {
			t.Fatalf("%s: status %d, want %d: %.300s", row.name, a.StatusCode, row.want, a.body)
		}
		if row.want != 200 {
			if node := a.Header.Get(wire.NodeHeader); a.code != wire.CodeBadRequest || node != b.srv.NodeID() {
				t.Errorf("%s: code %q from node %q, want the backend's own %q", row.name, a.code, node, wire.CodeBadRequest)
			}
			continue
		}

		req := httptest.NewRequest(http.MethodPost, row.path, bytes.NewReader(row.body))
		req.Header.Set("Content-Type", row.ctype)
		plan, ok := g.r.planRoute(httptest.NewRecorder(), req)
		if !ok {
			t.Fatalf("%s: planRoute rejected what it just routed", row.name)
		}
		if plan.imageKey != wire.ImageKey(image) {
			t.Errorf("%s: image key %s, want the image part's hash", row.name, plan.imageKey)
		}
		if req.URL.Path == "/v1/simulate" {
			// Never probed in service — a simulation has no cached entity —
			// but its mesh stage cached under a name, and it must be this one.
			if plan.format != "" {
				t.Errorf("%s: format %q, want none", row.name, plan.format)
			}
			plan.format = "vtk"
		}
		resp, err := g.r.probeCache(req, b.ts.URL, plan)
		if err != nil {
			t.Fatalf("%s: probe: %v", row.name, err)
		}
		if probe := read(t, resp); probe.StatusCode != http.StatusOK || !probe.cacheOnly() {
			t.Errorf("%s: probe for (%s, %q, %s) answered %d cache-only %v, want a 200 hit",
				row.name, plan.imageKey[:8], plan.variant, plan.format, probe.StatusCode, probe.cacheOnly())
		}
	}
}

// TestRouteKeyFollowsTheBytes: the router keys an upload through the
// same memo the daemon does. A copy with one voxel byte flipped is a new
// route key: the local-304 shortcut the original's tag armed does not
// answer it, whether the memo has seen the copy before or not — the
// backend does, with a 200 and exactly one more run — while the
// original's own conditional stays local. A key a client claims in an
// X-Pi2md-Image-Key header names nothing: the upload is routed and its
// tag learned under the hash of its bytes.
func TestRouteKeyFollowsTheBytes(t *testing.T) {
	b := newPi2mdFleet(t, 1, serve.Config{}, nil)[0]
	g := routeTo(t, Config{}, b.ts.URL)
	image := sphereNRRD(t, 16)
	data := bytes.Index(image, []byte("\n\n")) + 2
	flip := func(at int) []byte {
		c := bytes.Clone(image)
		c[at] ^= 1
		return c
	}
	flipped := flip(data + (len(image)-data)/2)
	post := func(body []byte, hdr ...string) (int, string) {
		t.Helper()
		a := g.mesh(body, hdr...)
		return a.StatusCode, a.Header.Get("ETag")
	}
	leases := b.series("pi2md_lease_seconds_count")
	runs := func() int64 { return b.series("pi2md_lease_seconds_count") - leases }
	local304s := func() int64 { return g.r.Stats().ETag304s }

	code, tag := post(image)
	if code != http.StatusOK || tag == "" {
		t.Fatalf("first POST: %d with ETag %q, want a 200 with a tag", code, tag)
	}
	for i := 0; i < 2; i++ {
		if code, again := post(image); code != http.StatusOK || again != tag {
			t.Fatalf("repeat %d: %d with ETag %s, want 200 with %s", i+1, code, again, tag)
		}
	}
	if code, newTag := post(flipped); code != http.StatusOK || newTag == tag || runs() != 2 {
		t.Fatalf("flipped copy: %d with ETag %s (old %s) after %d runs; want 200, a new tag, 2 runs", code, newTag, tag, runs())
	}
	for i := 0; i < 2; i++ {
		if code, _ := post(flipped, "If-None-Match", tag); code != http.StatusOK {
			t.Fatalf("old tag on the flipped copy (ask %d): status %d, want 200", i+1, code)
		}
	}
	if local304s() != 0 || runs() != 2 {
		t.Fatalf("the flipped copy was answered by %d local 304s and %d runs; want 0 and 2", local304s(), runs())
	}
	if code, _ := post(image, "If-None-Match", tag); code != http.StatusNotModified || local304s() != 1 {
		t.Fatalf("old tag on the original: status %d, %d local 304s; want a local 304", code, local304s())
	}
	if st := g.r.Stats().UploadCache; st.Entries != 2 {
		t.Fatalf("router upload memo holds %d entries, want the original and the copy", st.Entries)
	}

	claimed := strings.Repeat("0", 64)
	third := flip(data + (len(image)-data)/3)
	code, thirdTag := post(third, "X-Pi2md-Image-Key", claimed)
	if code != http.StatusOK || thirdTag == "" || thirdTag == tag || runs() != 3 {
		t.Fatalf("upload under a wrong key header: %d with ETag %q after %d runs; want 200, its own tag, 3 runs", code, thirdTag, runs())
	}
	if _, ok := g.r.etags.lookup(meshKey(third)); !ok {
		t.Fatal("the upload's tag was not learned under the hash of its bytes")
	}
	if _, ok := g.r.etags.lookup(routeKey(claimed, "")); ok {
		t.Fatal("the ETag table learned the header's claimed key")
	}
	if code, _ := post(third, "If-None-Match", thirdTag, "X-Pi2md-Image-Key", claimed); code != http.StatusNotModified || local304s() != 2 {
		t.Fatalf("its own tag under a wrong key header: status %d, %d local 304s; want a local 304", code, local304s())
	}
}

// multipartUpload is an image upload with an optional JSON spec part.
func multipartUpload(image []byte, spec string) (body []byte, ctype string) {
	var b bytes.Buffer
	mw := multipart.NewWriter(&b)
	if spec != "" {
		mw.WriteField("spec", spec)
	}
	fw, _ := mw.CreateFormFile("image", "image")
	fw.Write(image)
	mw.Close()
	return b.Bytes(), mw.FormDataContentType()
}

// TestKnownKeyAnsweredAsItsPOST: once the ETag table knows a key, a
// request whose spec resolves is answered by a body-less cache read, and
// that answer is the one a POST of the same request straight to the
// backend gets: status, envelope code, ETag and body bytes. A request
// whose spec the backend rejects goes to the backend whole; answering it
// from the cache read makes the last two rows differ.
func TestKnownKeyAnsweredAsItsPOST(t *testing.T) {
	b := newPi2mdFleet(t, 1, serve.Config{}, nil)[0]
	g := routeTo(t, Config{}, b.ts.URL)
	image := sphereNRRD(t, 16)
	// The float knob renders as 1e+06 in the variant: a '+' the cache
	// read carries in its path.
	const knobs = "?max_radius_edge=1000000&max_elements=1000000"
	sp, err := wire.MeshSpecFromQuery(url.Values{"max_radius_edge": {"1000000"}, "max_elements": {"1000000"}})
	if err != nil || !strings.Contains(sp.Variant(), "1e+06") {
		t.Fatalf("knobs' variant %q (%v), want one containing 1e+06", sp.Variant(), err)
	}

	var tag string
	for _, path := range []string{"/v1/mesh", "/v1/mesh" + knobs} {
		a := g.post(path, octets, image)
		if a.StatusCode != http.StatusOK {
			t.Fatalf("priming %s: status %d: %.300s", path, a.StatusCode, a.body)
		}
		if tag == "" {
			tag = a.Header.Get("ETag")
		}
	}

	knobSpec, knobSpecType := multipartUpload(image, `{"max_radius_edge": 1e6, "max_elements": 1000000}`)
	badSpec, badSpecType := multipartUpload(image, `{"delta": -1}`)
	for _, row := range []struct {
		name, path, ctype string
		body              []byte
		hdr               []string
		keyed             bool // answered by the cache read
	}{
		{"default spec", "/v1/mesh", octets, image, nil, true},
		{"query knobs", "/v1/mesh" + knobs, octets, image, nil, true},
		{"multipart spec", "/v1/mesh", knobSpecType, knobSpec, nil, true},
		{"format=off", "/v1/mesh?format=off", octets, image, nil, true},
		{"If-None-Match that matches", "/v1/mesh", octets, image, []string{"If-None-Match", tag}, false},
		{"If-None-Match that does not", "/v1/mesh", octets, image, []string{"If-None-Match", `"ffffffffffffffff-vtk"`}, true},
		{"If-None-Match *", "/v1/mesh", octets, image, []string{"If-None-Match", "*"}, false},
		{"malformed multipart spec", "/v1/mesh", badSpecType, badSpec, nil, false},
		{"max_radius_edge below the bound", "/v1/mesh?max_radius_edge=0.1", octets, image, nil, false},
	} {
		got := g.post(row.path, row.ctype, row.body, row.hdr...)
		want := call(t, http.MethodPost, b.ts.URL+row.path, row.ctype, row.body, row.hdr...)
		if got.StatusCode != want.StatusCode || got.code != want.code || got.Header.Get("ETag") != want.Header.Get("ETag") || !bytes.Equal(got.body, want.body) {
			t.Errorf("%s: router answered %d %q ETag %s with %d bytes; the backend's POST, %d %q ETag %s with %d bytes",
				row.name, got.StatusCode, got.code, got.Header.Get("ETag"), len(got.body),
				want.StatusCode, want.code, want.Header.Get("ETag"), len(want.body))
		}
		if got.cacheOnly() != row.keyed {
			t.Errorf("%s: %s hit = %v, want %v", row.name, wire.CacheOnlyHeader, got.cacheOnly(), row.keyed)
		}
	}
	if st := g.r.Stats(); st.ReplicaCacheHits != 0 || st.ReplicaCacheMisses != 0 {
		t.Errorf("replica cache hits/misses = %d/%d on a healthy backend, want 0/0", st.ReplicaCacheHits, st.ReplicaCacheMisses)
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// TestKeyedHitLeavesTheUploadHome: a repeat the router names exactly
// reaches the backend as a body-less cache read, 0 upload bytes, counted
// by the backend's pi2md_cache_only_served_total and by neither of the
// router's replica counters, which stay the failover ladder's. When the
// blob is gone, the read's 404 and the upload behind it are one attempt:
// the request meshes at no retry, and neither replica counter moves.
func TestKeyedHitLeavesTheUploadHome(t *testing.T) {
	var mu sync.Mutex
	var calls []string // "METHOD status upload-bytes" per /v1/ request
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if !strings.HasPrefix(req.URL.Path, "/v1/") {
				h.ServeHTTP(w, req)
				return
			}
			body := &countingReader{r: req.Body}
			req.Body = io.NopCloser(body)
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			h.ServeHTTP(sw, req)
			mu.Lock()
			calls = append(calls, fmt.Sprintf("%s %d %d", req.Method, sw.code, body.n))
			mu.Unlock()
		})
	}
	took := func() []string {
		mu.Lock()
		defer mu.Unlock()
		c := calls
		calls = nil
		return c
	}
	b := newPi2mdFleet(t, 1, serve.Config{}, count)[0]
	g := routeTo(t, Config{}, b.ts.URL)
	image := sphereNRRD(t, 16)
	forward := fmt.Sprintf("POST 200 %d", len(image))
	leases := b.series("pi2md_lease_seconds_count")

	first := g.post("/v1/mesh", octets, image)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", first.StatusCode)
	}
	if got := took(); !slices.Equal(got, []string{forward}) {
		t.Fatalf("first request reached the backend as %q, want %q", got, forward)
	}
	hit := g.post("/v1/mesh", octets, image)
	if hit.StatusCode != http.StatusOK || !hit.cacheOnly() || !bytes.Equal(hit.body, first.body) {
		t.Fatalf("keyed hit: status %d, cache-only %v, same body %v", hit.StatusCode, hit.cacheOnly(), bytes.Equal(hit.body, first.body))
	}
	if got := took(); !slices.Equal(got, []string{"GET 200 0"}) {
		t.Fatalf("keyed hit reached the backend as %q, want one body-less read", got)
	}
	if n := b.series("pi2md_cache_only_served_total"); n != 1 {
		t.Errorf("pi2md_cache_only_served_total = %d after the keyed hit, want 1", n)
	}
	if st := g.r.Stats(); st.ReplicaCacheHits != 0 || st.ReplicaCacheMisses != 0 {
		t.Errorf("replica cache hits/misses = %d/%d after a keyed hit, want 0/0", st.ReplicaCacheHits, st.ReplicaCacheMisses)
	}

	// The blob goes (evicted, or lost with its disk); the store notices on
	// its next read. The table still knows the key.
	blobs, _ := filepath.Glob(filepath.Join(b.dir, "blobs", "*.snap"))
	if len(blobs) != 1 {
		t.Fatalf("%d blobs cached, want 1", len(blobs))
	}
	if err := os.Remove(blobs[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := b.store.Get(wire.ImageKey(image), ""); ok {
		t.Fatal("the store still serves a removed blob")
	}
	again := g.post("/v1/mesh", octets, image)
	if again.StatusCode != http.StatusOK || !bytes.Equal(again.body, first.body) {
		t.Fatalf("after eviction: status %d %q, want a 200 re-mesh", again.StatusCode, again.code)
	}
	if got := took(); !slices.Equal(got, []string{"GET 404 0", forward}) {
		t.Fatalf("after eviction the backend saw %q, want a body-less 404 then the upload", got)
	}
	served, missed, runs := b.series("pi2md_cache_only_served_total"), b.series("pi2md_cache_only_miss_total"), b.series("pi2md_lease_seconds_count")-leases
	if served != 1 || missed != 1 || runs != 2 {
		t.Errorf("backend cache-only served/miss = %d/%d, runs %d; want 1/1 and 2", served, missed, runs)
	}
	st := g.r.Stats()
	if st.Retries != 0 {
		t.Errorf("retries = %d; an evicted key must cost no retry", st.Retries)
	}
	if st.ReplicaCacheHits != 0 || st.ReplicaCacheMisses != 0 {
		t.Errorf("replica cache hits/misses = %d/%d after a keyed miss, want 0/0", st.ReplicaCacheHits, st.ReplicaCacheMisses)
	}
}
