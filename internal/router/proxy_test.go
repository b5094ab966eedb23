package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// cacheStub is a pi2md stand-in with a switchable replica cache: the
// full mesh path and the cache-only probe path answer distinguishable
// bodies, so tests can tell which one served.
type cacheStub struct {
	ts         *httptest.Server
	id         string
	meshHits   atomic.Int64
	probeHits  atomic.Int64
	cached     atomic.Bool
	rawETag    string // 16-hex raw etag both paths advertise
	drainKeys  []map[string]string
	drainCalls atomic.Int64
}

func newCacheFleet(t *testing.T, n int, rawETag string) []*cacheStub {
	t.Helper()
	fleet := make([]*cacheStub, n)
	for i := range fleet {
		b := &cacheStub{id: fmt.Sprintf("cstub-%d", i), rawETag: rawETag}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "ready\n")
		})
		mux.HandleFunc("POST /v1/mesh", func(w http.ResponseWriter, r *http.Request) {
			b.meshHits.Add(1)
			io.Copy(io.Discard, r.Body)
			w.Header().Set(wire.NodeHeader, b.id)
			w.Header().Set("ETag", wire.EntityTag(b.rawETag, "vtk"))
			io.WriteString(w, "full-"+b.id)
		})
		mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set(wire.NodeHeader, b.id)
			io.WriteString(w, "solved-"+b.id)
		})
		mux.HandleFunc("GET /v1/cache/", func(w http.ResponseWriter, r *http.Request) {
			b.probeHits.Add(1)
			if !b.cached.Load() {
				wire.WriteError(w, http.StatusNotFound, wire.CodeCacheMiss, "no cached result")
				return
			}
			entity := wire.EntityTag(b.rawETag, "vtk")
			w.Header().Set(wire.NodeHeader, b.id)
			w.Header().Set("ETag", entity)
			w.Header().Set(wire.CacheOnlyHeader, "hit")
			if wire.ETagMatch(r.Header.Get("If-None-Match"), entity) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			io.WriteString(w, "cached-"+b.id)
		})
		mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
			b.drainCalls.Add(1)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"node_id": b.id, "draining": true, "keys": b.drainKeys,
			})
		})
		b.ts = httptest.NewServer(mux)
		t.Cleanup(b.ts.Close)
		fleet[i] = b
	}
	return fleet
}

func cacheFleetURLs(fleet []*cacheStub) []string {
	urls := make([]string, len(fleet))
	for i, b := range fleet {
		urls[i] = b.ts.URL
	}
	return urls
}

func probeAllCache(r *Router, fleet []*cacheStub) {
	for _, b := range fleet {
		r.ProbeOnce(b.ts.URL)
	}
}

// decodeEnvelope reads the error envelope out of a response body.
func decodeEnvelope(t *testing.T, body io.Reader) (code, reason string, retryAfterS int) {
	t.Helper()
	var env struct {
		Error struct {
			Code        string `json:"code"`
			Reason      string `json:"reason"`
			RetryAfterS int    `json:"retry_after_s"`
		} `json:"error"`
	}
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	return env.Error.Code, env.Error.Reason, env.Error.RetryAfterS
}

// TestRelayMidBodyBackendDeath: a backend that sends headers and then
// dies mid-body must be accounted a transport failure — failed job,
// transport_error outcome, a strike in the health ledger — not a
// completed relay. Before the fix, the io.Copy error was dropped and
// the truncated response counted ok + completed.
func TestRelayMidBodyBackendDeath(t *testing.T) {
	var died atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("POST /v1/mesh", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", "1048576")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "only-a-few-bytes")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		died.Add(1)
		panic(http.ErrAbortHandler) // kill the connection mid-body
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	r := newTestRouter(t, Config{Backends: []string{ts.URL}, FailThreshold: 3})
	r.ProbeOnce(ts.URL)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	resp := postMesh(t, rts, []byte("fake-nrrd-payload-truncated"), nil)
	io.Copy(io.Discard, resp.Body) // the truncation surfaces client-side; ignore
	resp.Body.Close()
	if died.Load() != 1 {
		t.Fatalf("backend handler ran %d times, want 1", died.Load())
	}

	st := r.Stats()
	if st.ProxiedJobs != 1 || st.CompletedJobs != 0 || st.FailedJobs != 1 {
		t.Fatalf("ledger after truncated relay: proxied=%d completed=%d failed=%d, want 1/0/1",
			st.ProxiedJobs, st.CompletedJobs, st.FailedJobs)
	}
	if got := r.mProxied.Value(ts.URL, outcomeTransportErr); got != 1 {
		t.Fatalf("transport_error outcome = %d, want 1", got)
	}
	if got := r.mProxied.Value(ts.URL, outcomeOK); got != 0 {
		t.Fatalf("truncated relay counted ok (%d)", got)
	}
	if fails := st.Backends[0].ConsecutiveFails; fails < 1 {
		t.Fatalf("mid-body death left ConsecutiveFails=%d, want >=1 (health ledger not fed)", fails)
	}
	// The died-mid-body response must not have populated the ETag table.
	if st.ETagEntries != 0 {
		t.Fatalf("truncated relay learned an etag entry (%d)", st.ETagEntries)
	}
}

// TestProxyClientCancel499: a client canceling mid-proxy is answered
// with the backend tier's 499 canceled envelope — no Retry-After, the
// job counted failed, and no health-ledger strike against the backend.
// Before the fix this path fell into answer503, blaming capacity.
func TestProxyClientCancel499(t *testing.T) {
	fleet := newStubFleet(t, 1)
	gate := make(chan struct{})
	fleet[0].gate = gate
	defer close(gate)

	r := newTestRouter(t, Config{Backends: fleetURLs(fleet), FailThreshold: 3})
	probeAll(r, fleet)
	h := r.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/mesh",
		bytes.NewReader([]byte("fake-nrrd-payload-cancel"))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for fleet[0].hits.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client cancel")
	}

	if rec.Code != wire.StatusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, wire.StatusClientClosedRequest)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("canceled response carries Retry-After %q; a hung-up client must not be told to retry", ra)
	}
	code, reason, retryAfterS := decodeEnvelope(t, rec.Body)
	if code != wire.CodeCanceled || reason == "" {
		t.Fatalf("envelope code=%q reason=%q, want %q with a reason", code, reason, wire.CodeCanceled)
	}
	if retryAfterS != 0 {
		t.Fatalf("envelope retry_after_s=%d, want 0", retryAfterS)
	}
	st := r.Stats()
	if st.ProxiedJobs != 1 || st.CompletedJobs != 0 || st.FailedJobs != 1 {
		t.Fatalf("ledger after cancel: proxied=%d completed=%d failed=%d, want 1/0/1",
			st.ProxiedJobs, st.CompletedJobs, st.FailedJobs)
	}
	if got := r.mProxied.Value(fleet[0].ts.URL, outcomeClientGone); got != 1 {
		t.Fatalf("client_gone outcome = %d, want 1", got)
	}
	// The backend did nothing wrong: no strike, still in the ring.
	if fails := st.Backends[0].ConsecutiveFails; fails != 0 {
		t.Fatalf("client cancel blamed the backend (ConsecutiveFails=%d)", fails)
	}
	if got := len(r.InflightKeys()); got != 0 {
		t.Fatalf("%d keys still pinned after cancel", got)
	}
}

// TestPlanRouteRejectsBadImageKey: the streaming path must validate
// X-Pi2md-Image-Key as a full lowercase-hex SHA-256 before using it as
// a route key. Before the fix, arbitrary client bytes became route
// keys verbatim.
func TestPlanRouteRejectsBadImageKey(t *testing.T) {
	fleet := newStubFleet(t, 2)
	r := newTestRouter(t, Config{Backends: fleetURLs(fleet)})
	probeAll(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	bad := []struct{ name, key string }{
		{"too short", "deadbeef"},
		{"too long", strings.Repeat("a", 65)},
		{"uppercase hex", strings.Repeat("DEADBEEF00112233", 4)},
		{"non-hex at right length", strings.Repeat("deadbeef0011223", 4) + "zzzz"},
		{"path traversal", "../../../../../../etc/passwd/aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"},
		{"spaces", strings.Repeat("deadbeef0011223 ", 4)},
	}
	for _, tc := range bad {
		resp := postMesh(t, rts, []byte("body"), map[string]string{ImageKeyHeader: tc.key})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		code, reason, _ := decodeEnvelope(t, resp.Body)
		resp.Body.Close()
		if code != wire.CodeBadRequest || reason == "" {
			t.Fatalf("%s: envelope code=%q reason=%q, want %q", tc.name, code, reason, wire.CodeBadRequest)
		}
	}
	// None of the garbage reached a backend or leaked a flight pin.
	if got := fleet[0].hits.Load() + fleet[1].hits.Load(); got != 0 {
		t.Fatalf("rejected keys reached backends %d times", got)
	}
	if got := len(r.InflightKeys()); got != 0 {
		t.Fatalf("%d flight pins leaked from rejected keys", got)
	}
	st := r.Stats()
	if int(st.FailedJobs) != len(bad) || st.ProxiedJobs != st.CompletedJobs+st.FailedJobs {
		t.Fatalf("ledger after rejections: %+v", st)
	}

	// A well-formed key still routes.
	resp := postMesh(t, rts, []byte("body"),
		map[string]string{ImageKeyHeader: strings.Repeat("0123456789abcdef", 4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid key: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCopyHeadersConnectionNamed: RFC 7230 §6.1 — headers named in the
// Connection header value are hop-by-hop for this connection and must
// be stripped alongside the static set.
func TestCopyHeadersConnectionNamed(t *testing.T) {
	cases := []struct {
		name     string
		src      http.Header
		want     map[string]string
		stripped []string
	}{
		{
			name: "connection names a custom header",
			src: http.Header{
				"Connection": {"X-Custom, Keep-Alive"},
				"X-Custom":   {"secret"},
				"X-Other":    {"kept"},
				"Etag":       {`"0123456789abcdef-vtk"`},
			},
			want:     map[string]string{"X-Other": "kept", "Etag": `"0123456789abcdef-vtk"`},
			stripped: []string{"Connection", "X-Custom", "Keep-Alive"},
		},
		{
			name: "static hop-by-hop always stripped",
			src: http.Header{
				"Te":                {"trailers"},
				"Transfer-Encoding": {"chunked"},
				"Upgrade":           {"h2c"},
				"X-Pi2md-Node":      {"node-1"},
			},
			want:     map[string]string{"X-Pi2md-Node": "node-1"},
			stripped: []string{"Te", "Transfer-Encoding", "Upgrade"},
		},
		{
			name: "multiple connection values, odd casing and spacing",
			src: http.Header{
				"Connection": {" x-one ,", "X-TWO"},
				"X-One":      {"a"},
				"X-Two":      {"b"},
				"X-Three":    {"c"},
			},
			want:     map[string]string{"X-Three": "c"},
			stripped: []string{"X-One", "X-Two", "Connection"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := http.Header{}
			copyHeaders(dst, tc.src)
			for k, v := range tc.want {
				if got := dst.Get(k); got != v {
					t.Errorf("%s = %q, want %q", k, got, v)
				}
			}
			for _, k := range tc.stripped {
				if got := dst.Get(k); got != "" {
					t.Errorf("%s = %q leaked through, want stripped", k, got)
				}
			}
		})
	}
}

// TestETagTableLRU: the table is bounded, evicts least-recently-used,
// and lookup refreshes recency.
func TestETagTableLRU(t *testing.T) {
	tb := newETagTable(2)
	tb.learn("k1", "1111111111111111", "b1")
	tb.learn("k2", "2222222222222222", "b2")
	tb.lookup("k1") // refresh k1: k2 is now LRU
	tb.learn("k3", "3333333333333333", "b3")
	if tb.len() != 2 {
		t.Fatalf("len = %d, want 2", tb.len())
	}
	if _, ok := tb.lookup("k2"); ok {
		t.Fatal("k2 survived eviction despite being LRU")
	}
	if e, ok := tb.lookup("k1"); !ok || e.etag != "1111111111111111" {
		t.Fatalf("k1 = %+v ok=%v, want refreshed entry kept", e, ok)
	}
	// Upsert replaces in place, no growth.
	tb.learn("k1", "aaaaaaaaaaaaaaaa", "b9")
	if e, _ := tb.lookup("k1"); e.etag != "aaaaaaaaaaaaaaaa" || e.backend != "b9" {
		t.Fatalf("upsert did not replace: %+v", e)
	}
	if tb.len() != 2 {
		t.Fatalf("len after upsert = %d, want 2", tb.len())
	}
	// Empty key/etag are never stored.
	tb.learn("", "bbbbbbbbbbbbbbbb", "b")
	tb.learn("k4", "", "b")
	if tb.len() != 2 {
		t.Fatalf("len after junk learns = %d, want 2", tb.len())
	}
}

// TestRawETagFromHeader: only tags shaped exactly like the serving
// tier's (`"<16 hex>-<format>"`, weak or strong) populate the table.
func TestRawETagFromHeader(t *testing.T) {
	cases := []struct{ in, want string }{
		{`"0123456789abcdef-vtk"`, "0123456789abcdef"},
		{`"0123456789abcdef-off"`, "0123456789abcdef"},
		{`W/"0123456789abcdef-vtk"`, "0123456789abcdef"},
		{`  "0123456789abcdef-vtk" `, "0123456789abcdef"},
		{`"0123456789ABCDEF-vtk"`, ""}, // uppercase hex
		{`"0123456789abcde-vtk"`, ""},  // 15 hex
		{`"0123456789abcdef"`, ""},     // no format suffix
		{`0123456789abcdef-vtk`, ""},   // unquoted
		{`"zzzzzzzzzzzzzzzz-vtk"`, ""}, // non-hex
		{`"*"`, ""},
		{`"-vtk"`, ""},
		{``, ""},
		{`"`, ""},
	}
	for _, tc := range cases {
		if got := rawETagFromHeader(tc.in); got != tc.want {
			t.Errorf("rawETagFromHeader(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestRouterLocal304ShortCircuit: once a response's entity tag is
// learned, a conditional request whose If-None-Match matches is
// answered 304 by the router itself — no backend round trip, no body —
// and a non-matching validator still forwards.
func TestRouterLocal304ShortCircuit(t *testing.T) {
	raw := "0123456789abcdef"
	fleet := newCacheFleet(t, 1, raw)
	r := newTestRouter(t, Config{Backends: cacheFleetURLs(fleet)})
	probeAllCache(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	body := []byte("fake-nrrd-payload-etag")
	entity := wire.EntityTag(raw, "vtk")

	resp := postMesh(t, rts, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != entity {
		t.Fatalf("relayed ETag %q, want %q", got, entity)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if st := r.Stats(); st.ETagEntries != 1 {
		t.Fatalf("etag table has %d entries after a relayed 200, want 1", st.ETagEntries)
	}

	// Matching validator: local 304, backend untouched.
	resp = postMesh(t, rts, body, map[string]string{"If-None-Match": entity})
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional request: status %d, want 304", resp.StatusCode)
	}
	if len(b) != 0 {
		t.Fatalf("304 shipped %d body bytes", len(b))
	}
	if got := resp.Header.Get("ETag"); got != entity {
		t.Fatalf("304 ETag %q, want %q", got, entity)
	}
	if got := fleet[0].meshHits.Load(); got != 1 {
		t.Fatalf("local 304 still hit the backend (%d mesh hits)", got)
	}
	st := r.Stats()
	if st.ETag304s != 1 {
		t.Fatalf("etag_304s = %d, want 1", st.ETag304s)
	}
	if st.ProxiedJobs != st.CompletedJobs+st.FailedJobs || st.CompletedJobs != 2 {
		t.Fatalf("ledger after local 304: %+v", st)
	}

	// Wildcard matches too (RFC 9110 If-None-Match: *).
	resp = postMesh(t, rts, body, map[string]string{"If-None-Match": "*"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("wildcard conditional: status %d, want 304", resp.StatusCode)
	}

	// Stale validator forwards — the backend stays authoritative.
	resp = postMesh(t, rts, body, map[string]string{"If-None-Match": `"ffffffffffffffff-vtk"`})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional: status %d, want 200 from backend", resp.StatusCode)
	}
	if got := fleet[0].meshHits.Load(); got != 2 {
		t.Fatalf("stale conditional did not forward (%d mesh hits, want 2)", got)
	}

	// A different format is a different entity: the raw etag matches but
	// the suffix does not, so the request must forward, not 304.
	req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/mesh?format=off", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", entity) // vtk entity vs off request
	offResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	offResp.Body.Close()
	if offResp.StatusCode == http.StatusNotModified {
		t.Fatal("format-mismatched validator answered 304 locally")
	}
}

// TestRouterReplicaCacheLadder: when the backend that served a key
// goes away, the router walks the remaining candidates cache-only
// before paying a full re-mesh — transport-failure trigger on the
// request that discovers the death, unhealthy-server trigger once the
// node is ejected — and falls back to a full mesh on a cache miss.
func TestRouterReplicaCacheLadder(t *testing.T) {
	raw := "0123456789abcdef"
	fleet := newCacheFleet(t, 2, raw)
	part := &partition{}
	r := newTestRouter(t, Config{
		Backends:      cacheFleetURLs(fleet),
		Replicas:      2,
		FailThreshold: 1, // first transport failure ejects
		Transport:     part,
	})
	probeAllCache(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	body := []byte("fake-nrrd-payload-replica")
	owner := r.Owner(meshRouteKey(t, body))
	var ownerStub, survivor *cacheStub
	for _, b := range fleet {
		if b.ts.URL == owner {
			ownerStub = b
		} else {
			survivor = b
		}
	}

	// Warm: the owner serves a full mesh; the router learns (key → etag, owner).
	resp := postMesh(t, rts, body, nil)
	b1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b1) != "full-"+ownerStub.id {
		t.Fatalf("warm request: status %d body %q", resp.StatusCode, b1)
	}

	// The survivor holds the result (shared cache dir / replication in
	// the real deployment); the owner dies.
	survivor.cached.Store(true)
	part.set(owner, true)

	// Trigger 2: the forward to the still-"healthy" owner fails mid-walk;
	// the ladder probes the survivor cache-only and relays the hit.
	resp = postMesh(t, rts, body, nil)
	b2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b2) != "cached-"+survivor.id {
		t.Fatalf("post-death request: status %d body %q, want the survivor's cached copy", resp.StatusCode, b2)
	}
	if got := resp.Header.Get(wire.CacheOnlyHeader); got != "hit" {
		t.Fatalf("cache-served response lost the %s marker (%q)", wire.CacheOnlyHeader, got)
	}
	if got := survivor.meshHits.Load(); got != 0 {
		t.Fatalf("replica hit still re-meshed on the survivor (%d mesh hits)", got)
	}
	if st := r.Stats(); st.ReplicaCacheHits != 1 {
		t.Fatalf("replica_cache_hits = %d, want 1", st.ReplicaCacheHits)
	}
	// The transport failure ejected the owner (FailThreshold=1).
	for _, h := range r.HealthyBackends() {
		if h == owner {
			t.Fatal("owner still in ring after the discovering request")
		}
	}

	// The cache hit re-learned the key's server: the survivor is now the
	// recorded backend, so a healthy-survivor request forwards normally.
	// Flip the fleet — the survivor dies (via a probe, before any request
	// discovers it), the old owner heals and rejoins — and the next
	// request hits trigger 1: recorded server known-unhealthy, probe the
	// ladder cache-first without a failed forward.
	part.set(owner, false)
	r.ProbeOnce(owner) // one passing probe rejoins the old owner
	part.set(survivor.ts.URL, true)
	r.ProbeOnce(survivor.ts.URL) // FailThreshold=1: one failed probe ejects
	ownerStub.cached.Store(true)

	resp = postMesh(t, rts, body, nil)
	b3, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b3) != "cached-"+ownerStub.id {
		t.Fatalf("trigger-1 request: status %d body %q, want the owner's cached copy", resp.StatusCode, b3)
	}
	if got := ownerStub.meshHits.Load(); got != 1 {
		t.Fatalf("trigger-1 replica hit re-meshed (owner mesh hits %d, want 1 from warm-up)", got)
	}
	st := r.Stats()
	if st.ReplicaCacheHits != 2 {
		t.Fatalf("replica_cache_hits = %d, want 2", st.ReplicaCacheHits)
	}

	// Miss path: the recorded server (now the owner again) stays ejected
	// by hand; its cache goes cold. The probe 404s, the ladder moves on
	// to a full re-mesh.
	part.set(survivor.ts.URL, false)
	r.ProbeOnce(survivor.ts.URL) // survivor rejoins
	r.ejectBackend(owner)        // recorded server unhealthy again
	ownerStub.cached.Store(false)
	survivor.cached.Store(false)
	resp = postMesh(t, rts, body, nil)
	b4, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b4) != "full-"+survivor.id {
		t.Fatalf("miss-path request: status %d body %q, want a full re-mesh", resp.StatusCode, b4)
	}
	if got := survivor.meshHits.Load(); got != 1 {
		t.Fatalf("miss path mesh hits = %d, want 1", got)
	}
	st = r.Stats()
	if st.ReplicaCacheMisses < 1 {
		t.Fatalf("replica_cache_misses = %d, want >=1", st.ReplicaCacheMisses)
	}
	if st.ProxiedJobs != st.CompletedJobs+st.FailedJobs {
		t.Fatalf("ledger unbalanced: %+v", st)
	}
}

// TestRouterDrainHandoff: POST /v1/drain tells the backend to drain,
// learns its well-formed announced MRU keys into the ETag table, and ejects the
// node — so conditional requests for its keys keep 304ing locally and
// cache-only reads route to survivors, with no window where new work
// lands on the draining node.
func TestRouterDrainHandoff(t *testing.T) {
	raw := "0123456789abcdef"
	imageKey := strings.Repeat("0123456789abcdef", 4)
	fleet := newCacheFleet(t, 2, raw)
	fleet[0].drainKeys = []map[string]string{
		{"image_key": imageKey, "variant": "", "etag": raw},
		// Junk is skipped: neither prewarmed nor learned.
		{"image_key": "not-a-key", "variant": "", "etag": raw},
		{"image_key": strings.ToUpper(imageKey), "variant": "", "etag": raw},
		{"image_key": imageKey, "variant": "a", "etag": `"` + raw + `-vtk"`},
		{"image_key": imageKey, "variant": "b", "etag": strings.ToUpper(raw)},
		{"image_key": imageKey, "variant": "c", "etag": raw + "0"},
	}
	r := newTestRouter(t, Config{Backends: cacheFleetURLs(fleet)})
	probeAllCache(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	// Unknown backend is a 400, not a drain of something else.
	resp, err := http.Post(rts.URL+"/v1/drain?backend=http://nope.invalid:1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend drain: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Post(rts.URL+"/v1/drain?backend="+fleet[0].ts.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var res drainResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	if !res.Ejected || res.KeysPrewarmed != 1 || res.NodeID != fleet[0].id {
		t.Fatalf("drain result = %+v, want ejected with 1 prewarmed key from %s", res, fleet[0].id)
	}
	if got := fleet[0].drainCalls.Load(); got != 1 {
		t.Fatalf("backend saw %d drain calls, want 1", got)
	}
	for _, h := range r.HealthyBackends() {
		if h == fleet[0].ts.URL {
			t.Fatal("drained backend still in the healthy ring")
		}
	}
	st := r.Stats()
	if st.PlannedDrains != 1 || st.ETagEntries != 1 {
		t.Fatalf("stats after drain: drains=%d etag_entries=%d, want 1/1", st.PlannedDrains, st.ETagEntries)
	}

	// The handoff pays off immediately: a conditional request for the
	// drained node's key is answered 304 by the router, touching nobody.
	resp = postMesh(t, rts, []byte("any-body"), map[string]string{
		ImageKeyHeader:  imageKey,
		"If-None-Match": wire.EntityTag(raw, "vtk"),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("post-drain conditional: status %d, want 304", resp.StatusCode)
	}
	if got := r.Stats().ETag304s; got != 1 {
		t.Fatalf("etag_304s = %d, want 1", got)
	}
	if got := fleet[0].meshHits.Load() + fleet[1].meshHits.Load(); got != 0 {
		t.Fatalf("post-drain conditional reached a backend (%d mesh hits)", got)
	}

	// A non-conditional request for that key finds the recorded server
	// unhealthy and reads the survivor's cache instead of re-meshing.
	fleet[1].cached.Store(true)
	resp = postMesh(t, rts, []byte("any-body"), map[string]string{ImageKeyHeader: imageKey})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "cached-"+fleet[1].id {
		t.Fatalf("post-drain read: status %d body %q, want the survivor's cached copy", resp.StatusCode, body)
	}
	if got := r.Stats().ReplicaCacheHits; got != 1 {
		t.Fatalf("replica_cache_hits = %d, want 1", got)
	}
	if got := fleet[1].meshHits.Load(); got != 0 {
		t.Fatalf("post-drain read re-meshed on the survivor (%d)", got)
	}
}

// TestETagDropIf: the conditional drop removes an entry only while it
// still names the backend the caller observed the miss from — a
// concurrent re-home to another backend wins the race and survives.
func TestETagDropIf(t *testing.T) {
	tb := newETagTable(4)
	tb.learn("k", "0123456789abcdef", "b1")
	tb.dropIf("k", "b2") // observed from the wrong backend: keep
	if _, ok := tb.lookup("k"); !ok {
		t.Fatal("dropIf removed an entry re-homed to another backend")
	}
	tb.dropIf("k", "b1")
	if _, ok := tb.lookup("k"); ok {
		t.Fatal("dropIf kept an entry its own backend 404ed on")
	}
	tb.dropIf("missing", "b1") // absent key: no panic, no effect
	if tb.len() != 0 {
		t.Fatalf("len = %d, want 0", tb.len())
	}
}

// TestETagStaleDropOnMiss: when the backend the ETag table attributes
// a key to answers the cache-only probe with 404 cache_miss, the entry
// is dropped. Before the fix the stale attribution lived on — and the
// router kept answering local 304s for a blob no backend held, serving
// clients an entity that could no longer be fetched.
func TestETagStaleDropOnMiss(t *testing.T) {
	// Uppercase raw etag: the stubs' mesh responses carry an
	// unlearnable ETag, so nothing re-homes the entry behind our back.
	fleet := newCacheFleet(t, 2, "ZZZZZZZZZZZZZZZZ")
	part := &partition{}
	r := newTestRouter(t, Config{
		Backends:      cacheFleetURLs(fleet),
		Replicas:      2,
		FailThreshold: 10, // the dead owner stays "healthy": trigger-2 territory
		Transport:     part,
	})
	probeAllCache(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	body := []byte("fake-nrrd-payload-stale-etag")
	key := meshRouteKey(t, body)
	owner := r.Owner(key)
	var survivor *cacheStub
	for _, b := range fleet {
		if b.ts.URL != owner {
			survivor = b
		}
	}

	// The table attributes the key to the survivor — which no longer
	// holds the blob (evicted, disk lost, fsck dropped it) — and the
	// ring owner dies, so the next request walks the cache ladder.
	raw := "0123456789abcdef"
	r.etags.learn(key, raw, survivor.ts.URL)
	part.set(owner, true)

	resp := postMesh(t, rts, body, nil)
	b1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b1) != "full-"+survivor.id {
		t.Fatalf("post-death request: status %d body %q, want a full re-mesh on the survivor", resp.StatusCode, b1)
	}
	if got := survivor.probeHits.Load(); got != 1 {
		t.Fatalf("attributed backend saw %d cache probes, want 1", got)
	}
	st := r.Stats()
	if st.ReplicaCacheMisses != 1 {
		t.Fatalf("replica_cache_misses = %d, want 1", st.ReplicaCacheMisses)
	}
	// The regression: the 404 from the very backend the table blamed
	// must drop the entry. Before the fix ETagEntries stayed 1 here.
	if st.ETagEntries != 0 {
		t.Fatalf("etag table still holds %d entries after the attributed backend 404ed", st.ETagEntries)
	}

	// Client-visible staleness check: a validator naming the gone
	// entity must forward and re-mesh, never 304 locally against a
	// blob nobody can produce.
	resp = postMesh(t, rts, body, map[string]string{"If-None-Match": wire.EntityTag(raw, "vtk")})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		t.Fatal("router answered 304 for an entity no backend holds")
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conditional re-mesh: status %d, want 200", resp.StatusCode)
	}
}

// TestStreamedSimulateNeverCacheAnswered: a simulation's answer lives in
// no snapshot cache, so even with the key's mesh entity in the ETag
// table and its last-known server gone — everything that arms the
// replica ladder and the local 304 for /v1/mesh — a streamed
// /v1/simulate must be forwarded and answered by a backend's solver.
// Before the fix the key-header path set a format whatever the route,
// and the cached mesh (or a local 304) came back as the simulation.
func TestStreamedSimulateNeverCacheAnswered(t *testing.T) {
	raw := "0123456789abcdef"
	fleet := newCacheFleet(t, 2, raw)
	for _, b := range fleet {
		b.cached.Store(true)
	}
	dead := "http://127.0.0.1:9" // configured but never healthy
	r := newTestRouter(t, Config{Backends: append(cacheFleetURLs(fleet), dead), Replicas: 2})
	probeAllCache(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	imageKey := strings.Repeat("0123456789abcdef", 4)
	r.etags.learn(routeKey(imageKey, ""), raw, dead)

	for name, inm := range map[string]string{"ladder": "", "local 304": wire.EntityTag(raw, "vtk")} {
		req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/simulate", strings.NewReader("spec-and-image"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ImageKeyHeader, imageKey)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(got), "solved-") || resp.Header.Get(wire.CacheOnlyHeader) != "" {
			t.Errorf("%s: status %d body %q %s=%q, want a backend's own simulation",
				name, resp.StatusCode, got, wire.CacheOnlyHeader, resp.Header.Get(wire.CacheOnlyHeader))
		}
	}
	var probes int64
	for _, b := range fleet {
		probes += b.probeHits.Load()
	}
	if st := r.Stats(); probes != 0 || st.ReplicaCacheHits != 0 || st.ETag304s != 0 {
		t.Errorf("cache probes=%d replica_cache_hits=%d etag_304s=%d, want none for a simulation",
			probes, st.ReplicaCacheHits, st.ETag304s)
	}
	if _, ok := r.etags.lookup(routeKey(imageKey, "")); !ok {
		t.Error("the simulation dropped the mesh's ETag entry")
	}
}

// TestRetryBudgetExhausted: with an empty token bucket every round
// trip beyond a request's first is refused — the fallback ladder stops
// before touching a survivor and the client gets the budget-exhausted
// 503 — and successful relays earn the allowance back at the
// configured ratio, after which exactly one funded probe rescues the
// next failover.
func TestRetryBudgetExhausted(t *testing.T) {
	raw := "0123456789abcdef"
	fleet := newCacheFleet(t, 2, raw)
	part := &partition{}
	r := newTestRouter(t, Config{
		Backends:      cacheFleetURLs(fleet),
		Replicas:      2,
		FailThreshold: 10,
		Transport:     part,
	})
	r.budget.mu.Lock()
	r.budget.tokens = 0 // as if the boot allowance were already spent
	r.budget.mu.Unlock()
	probeAllCache(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	body := []byte("fake-nrrd-payload-budget")
	key := meshRouteKey(t, body)
	owner := r.Owner(key)
	var ownerStub, survivor *cacheStub
	for _, b := range fleet {
		if b.ts.URL == owner {
			ownerStub = b
		} else {
			survivor = b
		}
	}

	// Empty bucket: the owner's transport failure cannot buy a single
	// fallback round trip.
	part.set(owner, true)
	resp := postMesh(t, rts, body, nil)
	code, reason, retryAfterS := decodeEnvelope(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-bucket failover: status %d, want 503", resp.StatusCode)
	}
	if code != wire.CodeUnavailable || !strings.Contains(reason, "retry budget exhausted") {
		t.Fatalf("envelope code=%q reason=%q, want %q naming the exhausted budget", code, reason, wire.CodeUnavailable)
	}
	if retryAfterS < 1 || retryAfterS > 30 {
		t.Fatalf("retry_after_s = %d outside the [1,30] clamp", retryAfterS)
	}
	if got := survivor.meshHits.Load() + survivor.probeHits.Load(); got != 0 {
		t.Fatalf("the exhausted budget still let %d round trips reach the survivor", got)
	}
	st := r.Stats()
	if st.Retries != 0 || st.RetryExhausted != 2 {
		t.Fatalf("retries=%d exhausted=%d, want 0/2 (cache rung + fallback forward both refused)",
			st.Retries, st.RetryExhausted)
	}

	// Successful relays at the default 0.1 ratio earn the allowance
	// back; 12 of them overshoot one whole token (10 would leave the
	// sum a rounding hair below 1.0 and the withdraw would refuse).
	part.set(owner, false)
	for i := 0; i < 12; i++ {
		resp := postMesh(t, rts, body, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refill relay %d: status %d", i, resp.StatusCode)
		}
	}
	if tok := r.Stats().RetryBudgetTokens; tok < 1 || tok > 1.3 {
		t.Fatalf("budget tokens = %g after 12 ok relays, want ~1.2", tok)
	}
	if got := ownerStub.meshHits.Load(); got != 12 {
		t.Fatalf("owner served %d relays, want 12", got)
	}

	// The earned token funds exactly one fallback probe, which rescues
	// the next failover from the survivor's cache.
	survivor.cached.Store(true)
	part.set(owner, true)
	resp = postMesh(t, rts, body, nil)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got) != "cached-"+survivor.id {
		t.Fatalf("funded failover: status %d body %q, want the survivor's cached copy", resp.StatusCode, got)
	}
	if st := r.Stats(); st.Retries != 1 {
		t.Fatalf("retries = %d, want exactly the funded probe", st.Retries)
	}
}
