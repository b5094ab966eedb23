package router

import (
	"bytes"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/serve"
)

// TestRouterRelaysLengthFramed: what a real pi2md sends length-framed
// arrives length-framed through the router — Content-Length is not a
// hop-by-hop header, so the relay forwards the backend's framing
// instead of re-chunking the body — for a leader's mesh, a hit, OFF, a
// simulation, and the replica ladder's cache-only relay; a 304 stays
// body-less.
func TestRouterRelaysLengthFramed(t *testing.T) {
	fleet := newPi2mdFleet(t, 2, serve.Config{}, nil)
	g := routeTo(t, Config{FailThreshold: 1}, fleet[0].ts.URL, fleet[1].ts.URL)
	image := sphereNRRD(t, 24)

	framed := func(name, path, ctype string, body []byte) answer {
		t.Helper()
		a := g.post(path, ctype, body)
		if a.StatusCode != http.StatusOK || a.cut {
			t.Fatalf("%s: status %d, cut %v: %.200s", name, a.StatusCode, a.cut, a.body)
		}
		if cl := a.Header.Get("Content-Length"); cl != strconv.Itoa(len(a.body)) || len(a.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %q, Transfer-Encoding %v for a %d byte body",
				name, cl, a.TransferEncoding, len(a.body))
		}
		if len(a.body) < 4096 {
			t.Errorf("%s: only %d bytes — too small to have been chunked in the first place", name, len(a.body))
		}
		return a
	}

	first := framed("leader", "/v1/mesh", octets, image)
	hit := framed("hit", "/v1/mesh", octets, image)
	if !bytes.Equal(first.body, hit.body) {
		t.Error("the hit's body differs from the leader's")
	}
	framed("format=off", "/v1/mesh?format=off", octets, image)

	if a := g.post("/v1/mesh", octets, image, "If-None-Match", hit.Header.Get("ETag")); a.StatusCode != http.StatusNotModified ||
		len(a.body) != 0 || a.Header.Get("Content-Length") != "" {
		t.Errorf("conditional: status %d, %d bytes, Content-Length %q; want a bare 304",
			a.StatusCode, len(a.body), a.Header.Get("Content-Length"))
	}

	form, ctype := multipartUpload(image, `{"dirichlet":[{"value":0}],"source":{"uniform":1}}`)
	if sim := framed("simulate", "/v1/simulate", ctype, form); !bytes.Contains(sim.body, []byte("POINT_DATA")) {
		t.Error("simulate relayed no field")
	}

	// The replica ladder: the other backend meshes the same image into
	// its own cache, the owner drops off the network, and the router
	// relays the survivor's cache-only answer.
	owner := g.r.candidates(meshKey(image))[0]
	survivor := fleet[0].ts.URL
	if survivor == owner {
		survivor = fleet[1].ts.URL
	}
	if a := call(t, http.MethodPost, survivor+"/v1/mesh", octets, image); a.StatusCode != http.StatusOK {
		t.Fatalf("warming the survivor: status %d: %.200s", a.StatusCode, a.body)
	}
	g.part.set(owner, true)
	if a := framed("replica ladder", "/v1/mesh", octets, image); !a.cacheOnly() || !bytes.Equal(a.body, first.body) {
		t.Errorf("ladder answer: cache-only %v, %d bytes; want the survivor's cache-only copy of the same mesh",
			a.cacheOnly(), len(a.body))
	}
	if st := g.r.Stats(); st.ReplicaCacheHits != 1 {
		t.Errorf("replica_cache_hits = %d, want 1", st.ReplicaCacheHits)
	}
}
