package router

import (
	"bytes"
	"context"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
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
	store, _, err := cachestore.Open(cachestore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		PoolSize: 1,
		Cache:    store,
		Session:  core.Config{Workers: 1, LivelockTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
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
	return srv, backend, r, rts
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
