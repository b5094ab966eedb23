package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

// wantFramed asserts an answer was length-framed: an exact
// Content-Length equal to the bytes that arrived, and no chunking.
func wantFramed(t *testing.T, name string, a answer) {
	t.Helper()
	if cl := a.Header.Get("Content-Length"); cl != strconv.Itoa(len(a.body)) || a.ContentLength != int64(len(a.body)) {
		t.Errorf("%s: Content-Length %q (parsed %d) for a %d byte body", name, cl, a.ContentLength, len(a.body))
	}
	if len(a.TransferEncoding) != 0 {
		t.Errorf("%s: Transfer-Encoding %v, want none", name, a.TransferEncoding)
	}
}

// TestResponsesAreLengthFramed: every way a mesh or a field leaves the
// daemon — leader, cache hit, coalesced follower, cache-only hit, cache
// probe, OFF, simulate as VTK and as a summary — is one length-framed
// entity, large bodies included, and a 304 stays body-less.
func TestResponsesAreLengthFramed(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()
	image := nrrdBody(t, 24) // a body well past net/http's 2 KiB sniff-and-frame buffer
	key := wire.ImageKey(image)

	framed := func(name string, a answer) answer {
		t.Helper()
		if a.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %.200s", name, a.StatusCode, a.body)
		}
		wantFramed(t, name, a)
		if len(a.body) < 4096 {
			t.Errorf("%s: only %d bytes — too small to have been chunked in the first place", name, len(a.body))
		}
		return a
	}

	// The follower needs a flight to join: a leader gated inside its run,
	// under the key and variant the upload will hash to.
	gate, entered := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := srv.walk(context.Background(), &job{key: key, body: image, tune: func(*core.Config) {
			close(entered)
			<-gate
		}})
		leaderDone <- err
	}()
	<-entered
	followerDone := make(chan answer, 1)
	go func() { followerDone <- send(t, client, "POST", ts.URL+"/v1/mesh", octet, image) }()
	waitMembers(t, srv, key, 2)
	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("gated leader: %v", err)
	}
	follower := framed("coalesced follower", <-followerDone)
	if n := srv.mCoalesced.Value(); n != 1 {
		t.Fatalf("coalesced_jobs_total = %d: the follower did not coalesce", n)
	}

	// A second image for the leader's own response; the first is cached
	// by now and answers as a hit.
	other := nrrdBody(t, 22)
	mesh := ts.URL + "/v1/mesh"
	framed("leader", send(t, client, "POST", mesh, octet, other))
	hit := framed("hit", send(t, client, "POST", mesh, octet, image))
	if !bytes.Equal(hit.body, follower.body) {
		t.Error("the hit's body differs from the follower's")
	}
	framed("probe", send(t, client, "GET", ts.URL+"/v1/cache/"+key, "", nil))
	framed("format=off", send(t, client, "POST", mesh+"?format=off", octet, image))

	a := send(t, client, "POST", mesh, octet, image, "If-None-Match", hit.Header.Get("ETag"))
	if a.StatusCode != http.StatusNotModified || len(a.body) != 0 || a.Header.Get("Content-Length") != "" {
		t.Errorf("304: status %d with %d bytes and Content-Length %q", a.StatusCode, len(a.body), a.Header.Get("Content-Length"))
	}

	const spec = `{"dirichlet":[{"value":0}],"source":{"uniform":1}}`
	body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(spec), "image": image})
	sim := send(t, client, "POST", ts.URL+"/v1/simulate", ctype, body)
	if sim.StatusCode != http.StatusOK || !bytes.Contains(sim.body, []byte("POINT_DATA")) {
		t.Fatalf("simulate: status %d: %.200s", sim.StatusCode, sim.body)
	}
	wantFramed(t, "simulate", sim)
	body, ctype = multipartBody(t, map[string][]byte{"spec": []byte(`{"format":"summary",` + spec[1:]), "image": image})
	sum := send(t, client, "POST", ts.URL+"/v1/simulate", ctype, body)
	if sum.StatusCode != http.StatusOK || !bytes.HasSuffix(sum.body, []byte("}\n")) {
		t.Fatalf("simulate summary: status %d: %.200s", sum.StatusCode, sum.body)
	}
	wantFramed(t, "simulate summary", sum)
}

// TestFailedEncodeIs500: a response body that cannot be encoded is
// answered with the shared 500 envelope and nothing of the entity — no
// 200, no success headers, no partial body — and counted as a failed
// job. Before bodies were encoded ahead of their headers this was a
// 200 whose entity was empty or cut short.
func TestFailedEncodeIs500(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	snap := &core.MeshSnapshot{
		Verts: []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}},
		Cells: [][4]int32{{0, 1, 2, 3}},
	}
	rec := httptest.NewRecorder()
	srv.replySimulation(rec, "vtk", snap, []float64{1, 2}, &SimSummary{Vertices: 4})

	a := read(t, rec.Result())
	if a.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", a.StatusCode, a.body)
	}
	if a.code != wire.CodeInternal || !strings.Contains(a.reason, "2 values for 4 vertices") {
		t.Errorf("envelope %q %q, want %q naming the length mismatch", a.code, a.reason, wire.CodeInternal)
	}
	if ct := a.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want the envelope's", ct)
	}
	for _, h := range []string{"X-Simulate-Summary", "Content-Length", "ETag"} {
		if v := a.Header.Get(h); v != "" {
			t.Errorf("failed response carries %s: %q", h, v)
		}
	}
	if ok, failed := srv.mSimJobs.With("ok").Value(), srv.mSimJobs.With("solve_failed").Value(); ok != 0 || failed != 1 {
		t.Errorf("simulate_jobs_total ok=%d solve_failed=%d, want 0 and 1", ok, failed)
	}
}

// shortReader hands its bytes out a few at a time, like a network does.
type shortReader struct{ r io.Reader }

func (s shortReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 7)]) }

// TestReadSizedTrustsNoDeclaration: the declared length only presizes.
// Whatever it says, the body is read whole and unaltered, an honest one
// without a growth copy, and a lie cannot make the read allocate beyond
// the fixed presize bound.
func TestReadSizedTrustsNoDeclaration(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	for _, c := range []struct {
		name     string
		declared int64
		maxCap   int
	}{
		{"exact", int64(len(payload)), len(payload) + bytes.MinRead},
		{"unknown", -1, 4 * len(payload)},
		{"understated", 10, 4 * len(payload)},
		{"zero", 0, 4 * len(payload)},
		{"overstated", int64(len(payload)) + 1000, len(payload) + 1000 + bytes.MinRead},
		{"absurdly overstated", 1 << 40, 1<<20 + bytes.MinRead}, // wire's presize bound
	} {
		got, err := wire.ReadSized(shortReader{bytes.NewReader(payload)}, c.declared)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%s: read %d bytes, want the %d sent", c.name, len(got), len(payload))
		}
		if cap(got) > c.maxCap {
			t.Errorf("%s: buffer capacity %d, want at most %d", c.name, cap(got), c.maxCap)
		}
	}

	// The cap stays the caller's MaxBytesReader, reachable through
	// errors.As exactly as with io.ReadAll, however large the claim.
	for _, declared := range []int64{-1, 10, int64(len(payload)), 1 << 40} {
		_, err := wire.ReadSized(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(payload)), 1000), declared)
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			t.Errorf("declared %d: error %v, want a MaxBytesError", declared, err)
		}
	}

	// Both upload surfaces split the same bytes under any declaration.
	multi, ctype := multipartBody(t, map[string][]byte{"spec": []byte(`{"delta":2}`), "image": payload})
	for _, declared := range []int64{-1, 3, int64(len(multi)), 1 << 40} {
		spec, image, err := wire.SplitSpecImage("application/octet-stream", bytes.NewReader(payload), declared)
		if err != nil || spec != nil || !bytes.Equal(image, payload) {
			t.Errorf("raw body, declared %d: spec %q, %d image bytes, err %v", declared, spec, len(image), err)
		}
		spec, image, err = wire.SplitSpecImage(ctype, bytes.NewReader(multi), declared)
		if err != nil || string(spec) != `{"delta":2}` || !bytes.Equal(image, payload) {
			t.Errorf("multipart, declared %d: spec %q, %d image bytes, err %v", declared, spec, len(image), err)
		}
	}
}
