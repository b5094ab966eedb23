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
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/serve"
	"repro/internal/wire"
)

// newRoutedPi2md starts one real pi2md with a result cache and a router
// in front of it, torn down with the test.
func newRoutedPi2md(t *testing.T) (*serve.Server, *httptest.Server, *Router, *httptest.Server) {
	t.Helper()
	srv, _, backend, r, rts := routedPi2md(t, t.TempDir(), nil)
	return srv, backend, r, rts
}

// routedPi2md is newRoutedPi2md with the result cache in dir, the store
// returned, and the backend's handler passed through wrap (nil: as is).
func routedPi2md(t *testing.T, dir string, wrap func(http.Handler) http.Handler) (*serve.Server, *cachestore.Store, *httptest.Server, *Router, *httptest.Server) {
	t.Helper()
	store, _, err := cachestore.Open(cachestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		PoolSize: 1,
		Cache:    store,
		Session:  core.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	backend := httptest.NewServer(h)
	r := newTestRouter(t, Config{Backends: []string{backend.URL}})
	r.ProbeOnce(backend.URL)
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		rts.Close()
		backend.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		store.Close()
	})
	return srv, store, backend, r, rts
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
	srv, backend, r, rts := newRoutedPi2md(t)
	image := sphereNRRD(t, 16)
	form := func(spec string) (body []byte, ctype string) {
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
	const octets = "application/octet-stream"
	withSpec, withSpecType := form(`{"min_facet_angle": 20, "format": "off"}`)
	noSpec, noSpecType := form("")
	sim, simType := form(`{"mesh": {"max_radius_edge": 3}, "dirichlet": [{"value": 0}], "source": {"uniform": 1}}`)
	badSpec, badSpecType := form(`{"delta": -1}`)

	for _, row := range []struct {
		name, path, ctype string
		body              []byte
		streamed          bool
		want              int
	}{
		{"raw body + query knobs", "/v1/mesh?max_radius_edge=2.5&format=off", octets, image, false, 200},
		{"multipart with spec", "/v1/mesh?max_radius_edge=9", withSpecType, withSpec, false, 200},
		{"multipart without spec", "/v1/mesh?max_elements=50000", noSpecType, noSpec, false, 200},
		{"simulate multipart", "/v1/simulate", simType, sim, false, 200},
		{"streamed key header + query", "/v1/mesh?min_facet_angle=25", octets, image, true, 200},
		{"malformed spec", "/v1/mesh", badSpecType, badSpec, false, 400},
	} {
		request := func(base string) *http.Request {
			req, err := http.NewRequest(http.MethodPost, base+row.path, bytes.NewReader(row.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", row.ctype)
			if row.streamed {
				req.Header.Set(ImageKeyHeader, wire.ImageKey(image))
			}
			return req
		}
		resp, err := http.DefaultClient.Do(request(rts.URL))
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if resp.StatusCode != row.want {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d, want %d: %.300s", row.name, resp.StatusCode, row.want, b)
		}
		if row.want != 200 {
			code, _, _ := decodeEnvelope(t, resp.Body)
			resp.Body.Close()
			if code != wire.CodeBadRequest || resp.Header.Get(wire.NodeHeader) != srv.NodeID() {
				t.Errorf("%s: code %q from node %q, want the backend's own %q",
					row.name, code, resp.Header.Get(wire.NodeHeader), wire.CodeBadRequest)
			}
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		req := request("")
		plan, ok := r.planRoute(httptest.NewRecorder(), req)
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
		probe, err := r.probeCache(req, backend.URL, plan)
		if err != nil {
			t.Fatalf("%s: probe: %v", row.name, err)
		}
		io.Copy(io.Discard, probe.Body)
		probe.Body.Close()
		if probe.StatusCode != http.StatusOK || probe.Header.Get(wire.CacheOnlyHeader) != "hit" {
			t.Errorf("%s: probe for (%s, %q, %s) answered %d %s=%q, want a 200 hit",
				row.name, plan.imageKey[:8], plan.variant, plan.format,
				probe.StatusCode, wire.CacheOnlyHeader, probe.Header.Get(wire.CacheOnlyHeader))
		}
	}
}

// TestRouteKeyFollowsTheBytes: the router keys an upload through the
// same memo the daemon does. A copy with one voxel byte flipped is a new
// route key: the local-304 shortcut the original's tag armed does not
// answer it, whether the memo has seen the copy before or not — the
// backend does, with a 200 and exactly one more run — while the
// original's own conditional stays local.
func TestRouteKeyFollowsTheBytes(t *testing.T) {
	srv, _, r, rts := newRoutedPi2md(t)
	image := sphereNRRD(t, 16)
	flipped := bytes.Clone(image)
	data := bytes.Index(flipped, []byte("\n\n")) + 2
	flipped[data+(len(flipped)-data)/2] ^= 1
	post := func(body []byte, ifNoneMatch string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/mesh", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("ETag")
	}
	runs := func() int64 { return srv.Stats().Pool.Checkouts }

	code, tag := post(image, "")
	if code != http.StatusOK || tag == "" {
		t.Fatalf("first POST: %d with ETag %q, want a 200 with a tag", code, tag)
	}
	for i := 0; i < 2; i++ {
		if code, again := post(image, ""); code != http.StatusOK || again != tag {
			t.Fatalf("repeat %d: %d with ETag %s, want 200 with %s", i+1, code, again, tag)
		}
	}
	if code, newTag := post(flipped, ""); code != http.StatusOK || newTag == tag || runs() != 2 {
		t.Fatalf("flipped copy: %d with ETag %s (old %s) after %d runs; want 200, a new tag, 2 runs", code, newTag, tag, runs())
	}
	for i := 0; i < 2; i++ {
		if code, _ := post(flipped, tag); code != http.StatusOK {
			t.Fatalf("old tag on the flipped copy (ask %d): status %d, want 200", i+1, code)
		}
	}
	if st := r.Stats(); st.ETag304s != 0 || runs() != 2 {
		t.Fatalf("the flipped copy was answered by %d local 304s and %d runs; want 0 and 2", st.ETag304s, runs())
	}
	if code, _ := post(image, tag); code != http.StatusNotModified || r.Stats().ETag304s != 1 {
		t.Fatalf("old tag on the original: status %d, %d local 304s; want a local 304", code, r.Stats().ETag304s)
	}
	if st := r.Stats().UploadCache; st.Entries != 2 {
		t.Fatalf("router upload memo holds %d entries, want the original and the copy", st.Entries)
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

// answer is what a client sees of one response.
type answer struct {
	status    int
	code      string // error envelope code; "" below 400
	etag      string
	body      []byte
	cacheOnly bool // marked X-Pi2md-Cache-Only: hit
}

func postFor(t *testing.T, url, ctype string, body []byte, hdr map[string]string) answer {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode, etag: resp.Header.Get("ETag"),
		cacheOnly: resp.Header.Get(wire.CacheOnlyHeader) == "hit"}
	if a.body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if a.status >= 400 {
		a.code, _, _ = decodeEnvelope(t, bytes.NewReader(a.body))
	}
	return a
}

// TestKnownKeyAnsweredAsItsPOST: once the ETag table knows a key, a
// request the router hashed and resolved itself is answered by a
// body-less cache read, and that answer is the one a POST of the same
// request straight to the backend gets: status, envelope code, ETag and
// body bytes. A request the router cannot name exactly — a spec the
// backend rejects, a client-vouched key whose body spec the router never
// sees — goes to the backend whole. Answering either from the cache read
// makes the last three rows differ.
func TestKnownKeyAnsweredAsItsPOST(t *testing.T) {
	_, backend, r, rts := newRoutedPi2md(t)
	image := sphereNRRD(t, 16)
	key := wire.ImageKey(image)
	const octets = "application/octet-stream"
	// The float knob renders as 1e+06 in the variant: a '+' the cache
	// read carries in its path.
	const knobs = "?max_radius_edge=1000000&max_elements=1000000"
	sp, err := wire.MeshSpecFromQuery(url.Values{"max_radius_edge": {"1000000"}, "max_elements": {"1000000"}})
	if err != nil || !strings.Contains(sp.Variant(), "1e+06") {
		t.Fatalf("knobs' variant %q (%v), want one containing 1e+06", sp.Variant(), err)
	}

	var tag string
	for _, path := range []string{"/v1/mesh", "/v1/mesh" + knobs} {
		a := postFor(t, rts.URL+path, octets, image, nil)
		if a.status != http.StatusOK {
			t.Fatalf("priming %s: status %d: %.300s", path, a.status, a.body)
		}
		if tag == "" {
			tag = a.etag
		}
	}
	// relay learns the ETag after the body is out, so the client can
	// finish reading the last priming response first.
	deadline := time.Now().Add(5 * time.Second)
	for _, variant := range []string{"", sp.Variant()} {
		for {
			if _, ok := r.etags.lookup(routeKey(key, variant)); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("priming left variant %q out of the ETag table", variant)
			}
			time.Sleep(time.Millisecond)
		}
	}

	knobSpec, knobSpecType := multipartUpload(image, `{"max_radius_edge": 1e6, "max_elements": 1000000}`)
	badSpec, badSpecType := multipartUpload(image, `{"delta": -1}`)
	offSpec, offSpecType := multipartUpload(image, `{"format": "off"}`)
	for _, row := range []struct {
		name, path, ctype string
		body              []byte
		hdr               map[string]string
		keyed             bool // answered by the cache read (a client cache-only POST is marked too)
	}{
		{"default spec", "/v1/mesh", octets, image, nil, true},
		{"query knobs", "/v1/mesh" + knobs, octets, image, nil, true},
		{"multipart spec", "/v1/mesh", knobSpecType, knobSpec, nil, true},
		{"format=off", "/v1/mesh?format=off", octets, image, nil, true},
		{"If-None-Match that matches", "/v1/mesh", octets, image, map[string]string{"If-None-Match": tag}, false},
		{"If-None-Match that does not", "/v1/mesh", octets, image,
			map[string]string{"If-None-Match": `"ffffffffffffffff-vtk"`}, true},
		{"If-None-Match *", "/v1/mesh", octets, image, map[string]string{"If-None-Match": "*"}, false},
		{"client cache-only", "/v1/mesh", octets, image, map[string]string{wire.CacheOnlyHeader: "1"}, true},
		{"malformed multipart spec", "/v1/mesh", badSpecType, badSpec, nil, false},
		{"max_radius_edge below the bound", "/v1/mesh?max_radius_edge=0.1", octets, image, nil, false},
		{"streamed key, body spec disagrees with query", "/v1/mesh" + knobs, offSpecType, offSpec,
			map[string]string{ImageKeyHeader: key}, false},
	} {
		got := postFor(t, rts.URL+row.path, row.ctype, row.body, row.hdr)
		want := postFor(t, backend.URL+row.path, row.ctype, row.body, row.hdr)
		if got.status != want.status || got.code != want.code || got.etag != want.etag || !bytes.Equal(got.body, want.body) {
			t.Errorf("%s: router answered %d %q ETag %s with %d bytes; the backend's POST, %d %q ETag %s with %d bytes",
				row.name, got.status, got.code, got.etag, len(got.body), want.status, want.code, want.etag, len(want.body))
		}
		if got.cacheOnly != row.keyed {
			t.Errorf("%s: %s hit = %v, want %v", row.name, wire.CacheOnlyHeader, got.cacheOnly, row.keyed)
		}
	}
	if st := r.Stats(); st.ReplicaCacheHits != 0 || st.ReplicaCacheMisses != 0 {
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
// with an empty retry budget the request still meshes, and neither retry
// counter moves.
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
	dir := t.TempDir()
	srv, store, _, r, rts := routedPi2md(t, dir, count)
	image := sphereNRRD(t, 16)
	forward := fmt.Sprintf("POST 200 %d", len(image))

	first := postFor(t, rts.URL+"/v1/mesh", "application/octet-stream", image, nil)
	if first.status != http.StatusOK {
		t.Fatalf("first request: status %d", first.status)
	}
	if got := took(); !slices.Equal(got, []string{forward}) {
		t.Fatalf("first request reached the backend as %q, want %q", got, forward)
	}
	hit := postFor(t, rts.URL+"/v1/mesh", "application/octet-stream", image, nil)
	if hit.status != http.StatusOK || !hit.cacheOnly || !bytes.Equal(hit.body, first.body) {
		t.Fatalf("keyed hit: status %d, cache-only %v, same body %v", hit.status, hit.cacheOnly, bytes.Equal(hit.body, first.body))
	}
	if got := took(); !slices.Equal(got, []string{"GET 200 0"}) {
		t.Fatalf("keyed hit reached the backend as %q, want one body-less read", got)
	}
	if st := srv.Stats(); st.CacheOnly != 1 {
		t.Errorf("pi2md_cache_only_served_total = %d after the keyed hit, want 1", st.CacheOnly)
	}
	if st := r.Stats(); st.ReplicaCacheHits != 0 || st.ReplicaCacheMisses != 0 {
		t.Errorf("replica cache hits/misses = %d/%d after a keyed hit, want 0/0", st.ReplicaCacheHits, st.ReplicaCacheMisses)
	}

	// The blob goes (evicted, or lost with its disk); the store notices on
	// its next read. The table still knows the key.
	blobs, _ := filepath.Glob(filepath.Join(dir, "blobs", "*.snap"))
	if len(blobs) != 1 {
		t.Fatalf("%d blobs cached, want 1", len(blobs))
	}
	if err := os.Remove(blobs[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := store.Get(wire.ImageKey(image), ""); ok {
		t.Fatal("the store still serves a removed blob")
	}
	r.budget.mu.Lock()
	r.budget.tokens = 0
	r.budget.mu.Unlock()

	again := postFor(t, rts.URL+"/v1/mesh", "application/octet-stream", image, nil)
	if again.status != http.StatusOK || !bytes.Equal(again.body, first.body) {
		t.Fatalf("after eviction: status %d %q, want a 200 re-mesh", again.status, again.code)
	}
	if got := took(); !slices.Equal(got, []string{"GET 404 0", forward}) {
		t.Fatalf("after eviction the backend saw %q, want a body-less 404 then the upload", got)
	}
	if st := srv.Stats(); st.CacheOnly != 1 || st.CacheOnlyMiss != 1 || st.Pool.Checkouts != 2 {
		t.Errorf("backend cache-only served/miss = %d/%d, runs %d; want 1/1 and 2", st.CacheOnly, st.CacheOnlyMiss, st.Pool.Checkouts)
	}
	st := r.Stats()
	if st.Retries != 0 || st.RetryExhausted != 0 {
		t.Errorf("retries = %d, budget exhausted = %d; an evicted key must cost no retry", st.Retries, st.RetryExhausted)
	}
	if st.ReplicaCacheHits != 0 || st.ReplicaCacheMisses != 0 {
		t.Errorf("replica cache hits/misses = %d/%d after a keyed miss, want 0/0", st.ReplicaCacheHits, st.ReplicaCacheMisses)
	}
}
