package router

import (
	"bytes"
	"context"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/serve"
	"repro/internal/wire"
)

// TestRouterRelaysLengthFramed: what a real pi2md sends length-framed
// arrives length-framed through the router — Content-Length is not a
// hop-by-hop header, so the relay forwards the backend's framing
// instead of re-chunking the body — for a leader's mesh, a hit, OFF, a
// simulation, and the replica ladder's cache-only relay; a 304 stays
// body-less.
func TestRouterRelaysLengthFramed(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		store, _, err := cachestore.Open(cachestore.Config{Dir: t.TempDir()})
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
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Drain(ctx)
			store.Close()
		})
		urls = append(urls, ts.URL)
	}
	part := &partition{}
	r := newTestRouter(t, Config{Backends: urls, FailThreshold: 1, Transport: part})
	for _, u := range urls {
		r.ProbeOnce(u)
	}
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	var nrrd bytes.Buffer
	if err := img.WriteNRRD(&nrrd, img.SpherePhantom(24)); err != nil {
		t.Fatal(err)
	}
	image := nrrd.Bytes()

	send := func(name, base, path, ctype string, body []byte, hdr ...string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ctype)
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading the body: %v", name, err)
		}
		return resp, got
	}
	framed := func(name, path, ctype string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, got := send(name, rts.URL, path, ctype, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %.200s", name, resp.StatusCode, got)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %q, Transfer-Encoding %v for a %d byte body",
				name, cl, resp.TransferEncoding, len(got))
		}
		if len(got) < 4096 {
			t.Errorf("%s: only %d bytes — too small to have been chunked in the first place", name, len(got))
		}
		return resp, got
	}

	const octets = "application/octet-stream"
	_, first := framed("leader", "/v1/mesh", octets, image)
	hit, again := framed("hit", "/v1/mesh", octets, image)
	if !bytes.Equal(first, again) {
		t.Error("the hit's body differs from the leader's")
	}
	framed("format=off", "/v1/mesh?format=off", octets, image)

	resp, body := send("304", rts.URL, "/v1/mesh", octets, image, "If-None-Match", hit.Header.Get("ETag"))
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("Content-Length") != "" {
		t.Errorf("conditional: status %d, %d bytes, Content-Length %q; want a bare 304",
			resp.StatusCode, len(body), resp.Header.Get("Content-Length"))
	}

	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	mw.WriteField("spec", `{"dirichlet":[{"value":0}],"source":{"uniform":1}}`)
	fw, _ := mw.CreateFormFile("image", "image")
	fw.Write(image)
	mw.Close()
	if _, sim := framed("simulate", "/v1/simulate", mw.FormDataContentType(), form.Bytes()); !bytes.Contains(sim, []byte("POINT_DATA")) {
		t.Error("simulate relayed no field")
	}

	// The replica ladder: the other backend meshes the same image into
	// its own cache, the owner drops off the network, and the router
	// relays the survivor's cache-only answer.
	owner := r.Owner(meshRouteKey(t, image))
	survivor := urls[0]
	if survivor == owner {
		survivor = urls[1]
	}
	if resp, got := send("warming the survivor", survivor, "/v1/mesh", octets, image); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming the survivor: status %d: %.200s", resp.StatusCode, got)
	}
	part.set(owner, true)
	ladder, relayed := framed("replica ladder", "/v1/mesh", octets, image)
	if ladder.Header.Get(wire.CacheOnlyHeader) != "hit" || !bytes.Equal(relayed, first) {
		t.Errorf("ladder answer: %s %q, %d bytes; want the survivor's cache-only copy of the same mesh",
			wire.CacheOnlyHeader, ladder.Header.Get(wire.CacheOnlyHeader), len(relayed))
	}
	if st := r.Stats(); st.ReplicaCacheHits != 1 {
		t.Errorf("replica_cache_hits = %d, want 1", st.ReplicaCacheHits)
	}
}
