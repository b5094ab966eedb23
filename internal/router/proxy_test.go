package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// ending is how one request was answered: its status, envelope code
// ("" below 400) and whether it carries a Retry-After.
type ending struct {
	status int
	code   string
	retry  bool
}

// TestEveryProxyEndingBooksOnce: every way a proxied request can end
// moves the router's ledger by exactly what it should — nothing booked
// twice, nothing missed, jobs == completed + failed — and is answered
// with its envelope code, a Retry-After within [1,30] s only on the
// router's own 503 (equal to the envelope's retry_after_s). Each row
// runs on a fresh rig; its act checks what only its ending shows.
func TestEveryProxyEndingBooksOnce(t *testing.T) {
	ok := ending{200, "", false}
	learned := func(t *testing.T, g *rig) {
		if a := g.mesh(g.body); a.Header.Get("ETag") != stubEntity {
			t.Fatalf("relayed ETag %q, want %q", a.Header.Get("ETag"), stubEntity)
		}
	}
	// The table knows the key and names a backend that never passed a
	// probe; every stub holds the mesh. What arms the local 304 and the
	// replica read for /v1/mesh must answer neither a simulation nor a
	// spec the backend rejects.
	knownDead := func(t *testing.T, g *rig) {
		for _, b := range g.fleet {
			b.cached.Store(true)
		}
		g.r.etags.learn(meshKey(g.body), stubETag, deadBackend)
	}
	backendsOwnAnswer := func(path, prefix string) func(t *testing.T, g *rig) answer {
		return func(t *testing.T, g *rig) answer {
			var a answer
			for _, hdr := range [][]string{nil, {"If-None-Match", stubEntity}} {
				if a = g.post(path, "", g.body, hdr...); !strings.HasPrefix(string(a.body), prefix) || a.cacheOnly() {
					t.Errorf("%v: %d %q cache-only %v, want a backend's own answer", hdr, a.StatusCode, a.body, a.cacheOnly())
				}
			}
			for _, b := range g.fleet {
				if n := b.probeHits.Load(); n != 0 {
					t.Errorf("%s's cache was read %d times", b.id, n)
				}
			}
			if _, ok := g.r.etags.lookup(meshKey(g.body)); !ok {
				t.Error("the mesh's ETag entry was dropped")
			}
			return a
		}
	}
	local304 := func(inm string) func(t *testing.T, g *rig) answer {
		return func(t *testing.T, g *rig) answer {
			a := g.mesh(g.body, "If-None-Match", inm)
			if a.Header.Get("ETag") != stubEntity || len(a.body) != 0 {
				t.Errorf("304 ETag %q and %d body bytes, want %q and none", a.Header.Get("ETag"), len(a.body), stubEntity)
			}
			return a
		}
	}
	nothingLearned := func(t *testing.T, g *rig) answer {
		a := g.mesh(g.body)
		if n := g.r.Stats().ETagEntries; n != 0 {
			t.Errorf("a relayed %d taught the ETag table %d entries", a.StatusCode, n)
		}
		return a
	}

	rows := []struct {
		name  string
		n     int // stubs
		cfg   Config
		setup func(t *testing.T, g *rig)
		act   func(t *testing.T, g *rig) answer
		want  ending
		moved map[string]int64
	}{
		{"the same body five times lands on one backend", 3, Config{}, nil,
			func(t *testing.T, g *rig) answer {
				var a answer
				for i := 0; i < 5; i++ {
					if a = g.mesh(g.body); a.Header.Get(wire.NodeHeader) != g.ladder(g.body)[0].id {
						t.Fatalf("request %d answered by %q, want the owner", i, a.Header.Get(wire.NodeHeader))
					}
				}
				return a
			},
			ok, map[string]int64{"jobs": 5, "completed": 5, "proxied:owner,ok": 5}},
		// The failover attempt reads the survivor's cache, misses, and
		// uploads; the owner's transport failure is a strike that ejects
		// it at FailThreshold 1.
		{"owner partitioned: the survivor answers", 3, Config{FailThreshold: 1},
			func(t *testing.T, g *rig) { g.part.set(g.ladder(g.body)[0].ts.URL, true) },
			func(t *testing.T, g *rig) answer {
				l := g.ladder(g.body)
				a := g.mesh(g.body)
				if string(a.body) != "full-"+l[1].id || g.healthy(l[0]) {
					t.Errorf("answered %q with the owner healthy %v, want the survivor's mesh and the owner ejected", a.body, g.healthy(l[0]))
				}
				return a
			},
			ok, map[string]int64{"jobs": 1, "completed": 1, "retries": 1, "replica_misses": 1,
				"proxied:owner,transport_error": 1, "proxied:survivor,ok": 1}},
		// A fleet-wide outage the probes saw: the ring is empty and the
		// router fails open to every configured backend.
		{"every backend unreachable", 2, Config{},
			func(t *testing.T, g *rig) {
				for _, b := range g.fleet {
					g.part.set(b.ts.URL, true)
					g.r.ejectBackend(b.ts.URL)
				}
			},
			func(t *testing.T, g *rig) answer { return g.mesh(g.body) },
			ending{503, wire.CodeUnavailable, true}, map[string]int64{"jobs": 1, "failed": 1, "retries": 1,
				"proxied:owner,transport_error": 1, "proxied:survivor,transport_error": 1}},
		// The status line went out; the truncated body is a transport
		// failure, not a completed relay, and teaches the table nothing.
		{"backend dies mid-body", 1, Config{},
			func(t *testing.T, g *rig) { g.fleet[0].dieMidBody.Store(true) },
			func(t *testing.T, g *rig) answer {
				a := g.mesh(g.body)
				if !a.cut || g.fails(g.fleet[0]) != 1 || g.r.Stats().ETagEntries != 0 {
					t.Errorf("cut %v, %d strikes, %d ETag entries; want a cut body, 1 strike, none learned",
						a.cut, g.fails(g.fleet[0]), g.r.Stats().ETagEntries)
				}
				return a
			},
			ok, map[string]int64{"jobs": 1, "failed": 1, "proxied:owner,transport_error": 1}},
		// The backend tier's 499: a hung-up client is not told to retry,
		// and the backend is not blamed.
		{"client cancels mid-proxy", 1, Config{},
			func(t *testing.T, g *rig) { g.fleet[0].hold.Store(true) },
			func(t *testing.T, g *rig) answer {
				ctx, cancel := context.WithCancel(context.Background())
				c := make(chan answer, 1)
				go func() { c <- g.direct(ctx, "/v1/mesh", g.body) }()
				for g.fleet[0].meshHits.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				cancel()
				a := <-c
				if n := g.fails(g.fleet[0]); n != 0 {
					t.Errorf("a client cancel struck the backend %d times", n)
				}
				return a
			},
			ending{wire.StatusClientClosedRequest, wire.CodeCanceled, false},
			map[string]int64{"jobs": 1, "failed": 1, "proxied:owner,client_gone": 1}},
		{"local 304, matching validator", 1, Config{}, learned, local304(stubEntity),
			ending{304, "", false}, map[string]int64{"jobs": 1, "completed": 1, "etag_304": 1}},
		{"local 304, wildcard validator", 1, Config{}, learned, local304("*"),
			ending{304, "", false}, map[string]int64{"jobs": 1, "completed": 1, "etag_304": 1}},
		// The backend stays authoritative.
		{"stale validator forwards", 1, Config{}, learned,
			func(t *testing.T, g *rig) answer { return g.mesh(g.body, "If-None-Match", `"ffffffffffffffff-vtk"`) },
			ok, map[string]int64{"jobs": 1, "completed": 1, "proxied:owner,ok": 1}},
		// Same raw etag, another format: another entity.
		{"validator of another format forwards", 1, Config{}, learned,
			func(t *testing.T, g *rig) answer {
				return g.post("/v1/mesh?format=off", "", g.body, "If-None-Match", stubEntity)
			},
			ok, map[string]int64{"jobs": 1, "completed": 1, "proxied:owner,ok": 1}},
		// A simulation's answer is in no snapshot cache.
		{"simulation of a known key, dead recorded server", 2, Config{Backends: []string{deadBackend}},
			knownDead, backendsOwnAnswer("/v1/simulate", "solved-"),
			ok, map[string]int64{"jobs": 2, "completed": 2, "proxied:owner,ok": 2}},
		// The backend's parser owns the 400: no cached entity answers a
		// spec it rejects.
		{"malformed spec of a known key, dead recorded server", 2, Config{Backends: []string{deadBackend}},
			knownDead, backendsOwnAnswer("/v1/mesh?max_radius_edge=0.1", "full-"),
			ok, map[string]int64{"jobs": 2, "completed": 2, "proxied:owner,ok": 2}},
		// In-process: net/http lingers half a second before it closes a
		// connection whose request body went unread.
		{"oversized upload", 1, Config{MaxRequestBytes: 16}, nil,
			func(t *testing.T, g *rig) answer {
				return g.direct(context.Background(), "/v1/mesh", bytes.Repeat([]byte("x"), 64))
			},
			ending{413, wire.CodeTooLarge, false}, map[string]int64{"jobs": 1, "failed": 1}},
		{"empty upload", 1, Config{}, nil,
			func(t *testing.T, g *rig) answer { return g.mesh(nil) },
			ending{400, wire.CodeBadRequest, false}, map[string]int64{"jobs": 1, "failed": 1}},
		// Relayed verbatim; an error's ETag is not learned.
		{"backend 4xx relayed", 1, Config{},
			func(t *testing.T, g *rig) { g.fleet[0].status.Store(400) }, nothingLearned,
			ending{400, wire.CodeBadRequest, false}, map[string]int64{"jobs": 1, "completed": 1, "proxied:owner,upstream_4xx": 1}},
		{"backend 5xx relayed", 1, Config{},
			func(t *testing.T, g *rig) { g.fleet[0].status.Store(500) }, nothingLearned,
			ending{500, wire.CodeInternal, false}, map[string]int64{"jobs": 1, "completed": 1, "proxied:owner,upstream_5xx": 1}},
		// Nothing to hand off, but the operator asked for it out of
		// rotation.
		{"drain of an unreachable backend", 2, Config{},
			func(t *testing.T, g *rig) { g.part.set(g.ladder(g.body)[0].ts.URL, true) },
			func(t *testing.T, g *rig) answer {
				owner := g.ladder(g.body)[0]
				a := g.post("/v1/drain?backend="+owner.ts.URL, "", nil)
				var res drainResult
				json.Unmarshal(a.body, &res)
				if !res.Ejected || res.KeysPrewarmed != 0 || g.healthy(owner) || owner.drainCalls.Load() != 0 {
					t.Errorf("drain result %+v, owner healthy %v; want it ejected with no keys", res, g.healthy(owner))
				}
				return a
			},
			ok, map[string]int64{"drains": 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g := newRig(t, row.n, row.cfg)
			if row.setup != nil {
				row.setup(t, g)
			}
			before := g.ledger()
			a := row.act(t, g)
			after := g.ledger()
			if e := (ending{a.StatusCode, a.code, a.Header.Get("Retry-After") != ""}); e != row.want {
				t.Errorf("answered %+v, want %+v", e, row.want)
			}
			if sec, err := strconv.Atoi(a.Header.Get("Retry-After")); row.want.retry && (err != nil || sec < 1 || sec > 30 || sec != a.retryAfterS) {
				t.Errorf("Retry-After %q, retry_after_s %d; want equal, within [1,30] s", a.Header.Get("Retry-After"), a.retryAfterS)
			} else if !row.want.retry && a.retryAfterS != 0 {
				t.Errorf("retry_after_s %d without a Retry-After", a.retryAfterS)
			}
			if row.want.code != "" && a.reason == "" {
				t.Error("the error envelope gives no reason")
			}
			for k, v := range after {
				if v-before[k] != row.moved[k] {
					t.Errorf("%s moved by %d, want %d", k, v-before[k], row.moved[k])
				}
			}
			for k := range row.moved {
				if _, ok := after[k]; !ok {
					t.Errorf("%s never booked, want it moved by %d", k, row.moved[k])
				}
			}
			if after["jobs"] != after["completed"]+after["failed"] {
				t.Errorf("jobs %d != completed %d + failed %d", after["jobs"], after["completed"], after["failed"])
			}
		})
	}
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

// TestETagTableLRU: learn upserts and refuses an empty key or etag, and
// the table evicts its least recently used entry past the cap (a lookup
// is a use).
func TestETagTableLRU(t *testing.T) {
	tb := newETagTable(2)
	tb.learn("k1", "1111111111111111", "b1")
	tb.learn("k1", "aaaaaaaaaaaaaaaa", "b9")
	tb.learn("", "bbbbbbbbbbbbbbbb", "b")
	tb.learn("k4", "", "b")
	if e, _ := tb.lookup("k1"); e != (etagEntry{"aaaaaaaaaaaaaaaa", "b9"}) || tb.len() != 1 {
		t.Fatalf("k1 = %+v in %d entries, want the upsert alone", e, tb.len())
	}
	tb.learn("k2", "2222222222222222", "b2")
	tb.lookup("k1")
	tb.learn("k3", "3333333333333333", "b3")
	if _, ok := tb.lookup("k2"); ok || tb.len() != 2 {
		t.Fatalf("k2 survived past the cap (%d entries), want it evicted", tb.len())
	}
	if _, ok := tb.lookup("k1"); !ok {
		t.Fatal("k1 evicted despite its lookup making it the most recent use")
	}
}

// TestETagDropIf: dropIf removes an entry only while it still names the
// backend the miss came from — a concurrent re-home survives — and an
// absent key is a no-op.
func TestETagDropIf(t *testing.T) {
	tb := newETagTable(2)
	tb.learn("k1", "aaaaaaaaaaaaaaaa", "b9")
	tb.dropIf("k1", "b1")
	if _, ok := tb.lookup("k1"); !ok {
		t.Fatal("dropIf removed an entry re-homed to another backend")
	}
	tb.dropIf("k1", "b9")
	tb.dropIf("missing", "b9")
	if _, ok := tb.lookup("k1"); ok || tb.len() != 0 {
		t.Fatalf("k1 kept after its own backend's miss (%d entries)", tb.len())
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

// TestRouterReplicaCacheLadder: when the backend that served a key
// goes away, the router reads the next candidate's cache before paying a
// full re-mesh — on the failover attempt of the request that discovers
// the death, and on the first attempt once the node is ejected, its
// candidate no longer the recorded server — and falls back to a full
// mesh on a cache miss. A failover attempt reads first even for a key
// the table has never seen.
func TestRouterReplicaCacheLadder(t *testing.T) {
	g := newRig(t, 2, Config{FailThreshold: 1}) // first transport failure ejects
	l := g.ladder(g.body)
	owner, survivor := l[0], l[1]
	want := func(step string, a answer, body string, hits int64) {
		t.Helper()
		if a.StatusCode != http.StatusOK || string(a.body) != body || a.cacheOnly() != strings.HasPrefix(body, "cached-") {
			t.Fatalf("%s: %d %q cache-only %v, want %q", step, a.StatusCode, a.body, a.cacheOnly(), body)
		}
		if got := g.r.Stats().ReplicaCacheHits; got != hits {
			t.Fatalf("%s: replica_cache_hits = %d, want %d", step, got, hits)
		}
	}

	// Warm: the owner serves a full mesh; the router learns (key → etag, owner).
	want("warm-up", g.mesh(g.body), "full-"+owner.id, 0)

	// The survivor holds the result (shared cache dir / replication in
	// the real deployment); the owner dies. The keyed read of the
	// still-"healthy" owner fails; the failover attempt reads the
	// survivor's cache and relays the hit, which ejects the owner.
	survivor.cached.Store(true)
	g.part.set(owner.ts.URL, true)
	want("post-death request", g.mesh(g.body), "cached-"+survivor.id, 1)
	if survivor.meshHits.Load() != 0 || g.healthy(owner) {
		t.Fatalf("survivor meshed %d times, owner healthy %v; want a cache hit and the owner ejected",
			survivor.meshHits.Load(), g.healthy(owner))
	}

	// The hit re-learned the key's server: the survivor. Flip the fleet —
	// the survivor dies (via a probe, before any request discovers it),
	// the old owner heals and rejoins — and the next request's first
	// attempt reads the owner, a backend other than the recorded one,
	// without a failed forward.
	g.part.set(owner.ts.URL, false)
	g.r.ProbeOnce(owner.ts.URL)
	g.part.set(survivor.ts.URL, true)
	g.r.ProbeOnce(survivor.ts.URL)
	owner.cached.Store(true)
	want("recorded server ejected", g.mesh(g.body), "cached-"+owner.id, 2)
	if got := owner.meshHits.Load(); got != 1 {
		t.Fatalf("the owner meshed %d times, want 1 (the warm-up)", got)
	}

	// Miss path: the recorded server (now the owner again) is ejected by
	// hand and every cache goes cold. The read 404s and the upload
	// follows to a full re-mesh.
	g.part.set(survivor.ts.URL, false)
	g.r.ProbeOnce(survivor.ts.URL)
	g.r.ejectBackend(owner.ts.URL)
	owner.cached.Store(false)
	survivor.cached.Store(false)
	want("miss path", g.mesh(g.body), "full-"+survivor.id, 2)
	if st := g.r.Stats(); st.ReplicaCacheMisses < 1 || survivor.meshHits.Load() != 1 {
		t.Fatalf("replica_cache_misses = %d, survivor mesh hits %d; want ≥1 and 1", st.ReplicaCacheMisses, survivor.meshHits.Load())
	}

	// A key the table has never seen: its owner is partitioned, the
	// survivor holds the blob. The failover attempt reads the survivor's
	// cache before it uploads.
	g = newRig(t, 2, Config{FailThreshold: 1})
	l = g.ladder(g.body)
	l[1].cached.Store(true)
	g.part.set(l[0].ts.URL, true)
	want("unseen key", g.mesh(g.body), "cached-"+l[1].id, 1)
	if got := l[1].meshHits.Load(); got != 0 {
		t.Fatalf("unseen key re-meshed on the survivor (%d mesh hits)", got)
	}
}

// TestRouterDrainHandoff: POST /v1/drain tells the backend to drain,
// learns its well-formed announced MRU keys into the ETag table, and ejects the
// node — so conditional requests for its keys keep 304ing locally and
// cache-only reads route to survivors, with no window where new work
// lands on the draining node.
func TestRouterDrainHandoff(t *testing.T) {
	g := newRig(t, 2, Config{})
	drained, survivor := g.fleet[0], g.fleet[1]
	imageKey := wire.ImageKey(g.body)
	drained.drainKeys = []map[string]string{
		{"image_key": imageKey, "variant": "", "etag": stubETag},
		// Junk is skipped: neither prewarmed nor learned.
		{"image_key": "not-a-key", "variant": "", "etag": stubETag},
		{"image_key": strings.ToUpper(imageKey), "variant": "", "etag": stubETag},
		{"image_key": imageKey, "variant": "a", "etag": `"` + stubETag + `-vtk"`},
		{"image_key": imageKey, "variant": "b", "etag": strings.ToUpper(stubETag)},
		{"image_key": imageKey, "variant": "c", "etag": stubETag + "0"},
	}

	// Unknown backend is a 400, not a drain of something else.
	if a := g.post("/v1/drain?backend=http://nope.invalid:1", "", nil); a.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend drain: status %d, want 400", a.StatusCode)
	}
	a := g.post("/v1/drain?backend="+drained.ts.URL, "", nil)
	var res drainResult
	if err := json.Unmarshal(a.body, &res); err != nil || a.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d, %v", a.StatusCode, err)
	}
	if !res.Ejected || res.KeysPrewarmed != 1 || res.NodeID != drained.id {
		t.Fatalf("drain result = %+v, want ejected with 1 prewarmed key from %s", res, drained.id)
	}
	if drained.drainCalls.Load() != 1 || g.healthy(drained) {
		t.Fatalf("backend saw %d drain calls, healthy %v; want 1 and ejected", drained.drainCalls.Load(), g.healthy(drained))
	}
	if st := g.r.Stats(); st.PlannedDrains != 1 || st.ETagEntries != 1 {
		t.Fatalf("stats after drain: drains=%d etag_entries=%d, want 1/1", st.PlannedDrains, st.ETagEntries)
	}

	// The handoff pays off immediately: a conditional request for the
	// drained node's key is answered 304 by the router, touching nobody.
	if a := g.mesh(g.body, "If-None-Match", stubEntity); a.StatusCode != http.StatusNotModified || g.r.Stats().ETag304s != 1 {
		t.Fatalf("post-drain conditional: status %d, etag_304s %d; want a local 304", a.StatusCode, g.r.Stats().ETag304s)
	}
	if got := drained.meshHits.Load() + survivor.meshHits.Load(); got != 0 {
		t.Fatalf("post-drain conditional reached a backend (%d mesh hits)", got)
	}

	// A non-conditional request for that key finds the recorded server
	// unhealthy and reads the survivor's cache instead of re-meshing.
	survivor.cached.Store(true)
	if a := g.mesh(g.body); a.StatusCode != http.StatusOK || string(a.body) != "cached-"+survivor.id {
		t.Fatalf("post-drain read: status %d body %q, want the survivor's cached copy", a.StatusCode, a.body)
	}
	if got := g.r.Stats().ReplicaCacheHits; got != 1 || survivor.meshHits.Load() != 0 {
		t.Fatalf("replica_cache_hits = %d, survivor mesh hits %d; want 1 and 0", got, survivor.meshHits.Load())
	}
}

// TestETagStaleDropOnMiss: when the backend the ETag table attributes
// a key to answers the cache-only probe with 404 cache_miss, the entry
// is dropped. Before the fix the stale attribution lived on — and the
// router kept answering local 304s for a blob no backend held, serving
// clients an entity that could no longer be fetched.
func TestETagStaleDropOnMiss(t *testing.T) {
	g := newRig(t, 2, Config{FailThreshold: 10}) // the dead owner stays "healthy"
	l := g.ladder(g.body)
	owner, survivor := l[0], l[1]
	// The stubs' meshes teach nothing, so nothing re-homes the entry
	// behind the test's back.
	for _, b := range g.fleet {
		b.untagged.Store(true)
	}

	// The table attributes the key to the survivor — which no longer
	// holds the blob (evicted, disk lost, fsck dropped it) — and the
	// ring owner dies, so the next request walks the cache ladder.
	g.r.etags.learn(meshKey(g.body), stubETag, survivor.ts.URL)
	g.part.set(owner.ts.URL, true)

	if a := g.mesh(g.body); a.StatusCode != http.StatusOK || string(a.body) != "full-"+survivor.id {
		t.Fatalf("post-death request: status %d body %q, want a full re-mesh on the survivor", a.StatusCode, a.body)
	}
	if got := survivor.probeHits.Load(); got != 1 {
		t.Fatalf("attributed backend saw %d cache probes, want 1", got)
	}
	// The 404 from the very backend the table blamed drops the entry.
	if st := g.r.Stats(); st.ReplicaCacheMisses != 1 || st.ETagEntries != 0 {
		t.Fatalf("replica_cache_misses = %d, etag entries %d after the attributed backend 404ed; want 1 and 0",
			st.ReplicaCacheMisses, st.ETagEntries)
	}

	// A validator naming the gone entity forwards and re-meshes, never
	// 304s locally against a blob nobody can produce.
	if a := g.mesh(g.body, "If-None-Match", stubEntity); a.StatusCode != http.StatusOK {
		t.Fatalf("conditional re-mesh: status %d, want 200", a.StatusCode)
	}
}

// TestFailoverBeforeEjection: the owner is partitioned but stays in the
// ring (the threshold is above its failure count), so every request
// walks the ladder — the owner's transport failure, then one attempt on
// the second replica: a cache read and the forward behind it — and never
// the third backend. The ladder's length is the only bound on that work:
// each request is answered 200 by the survivor at exactly one retry,
// however many came before it. Once the survivor is ejected too, its
// key's next request fails on the owner and reads, then uploads to, the
// third backend: one retry again. In between, with owner and survivor
// both partitioned and neither ejected, a request ends in the router's
// 503 and the third backend sees nothing: the ladder is two deep, not
// the whole ring.
func TestFailoverBeforeEjection(t *testing.T) {
	const requests = 12
	g := newRig(t, 3, Config{FailThreshold: requests + 3})
	l := g.ladder(g.body)
	owner, survivor, third := l[0], l[1], l[2]
	g.part.set(owner.ts.URL, true)

	sent := 0
	post := func(want *cacheStub, retries int64) {
		t.Helper()
		sent++
		if a := g.mesh(g.body); a.StatusCode != http.StatusOK || string(a.body) != "full-"+want.id {
			t.Fatalf("request %d: status %d body %q, want %s's 200", sent, a.StatusCode, a.body, want.id)
		}
		if st := g.r.Stats(); st.Retries != retries {
			t.Fatalf("request %d: retries = %d, want %d", sent, st.Retries, retries)
		}
	}
	for i := 1; i <= requests; i++ {
		post(survivor, int64(i)) // one failover attempt each
	}
	if !g.healthy(owner) {
		t.Fatalf("owner %s left the ring below its failure threshold", owner.id)
	}
	if got := survivor.meshHits.Load(); got != requests {
		t.Fatalf("survivor meshed %d requests, want %d", got, requests)
	}
	if got := third.meshHits.Load() + third.probeHits.Load(); got != 0 {
		t.Fatalf("%d round trips reached the third backend, past the ladder's depth", got)
	}

	// Owner and survivor both down, neither ejected: a 503, and the
	// third backend is never tried.
	g.part.set(survivor.ts.URL, true)
	sent++
	if a := g.mesh(g.body); a.StatusCode != http.StatusServiceUnavailable || a.code != wire.CodeUnavailable {
		t.Fatalf("request %d: status %d code %q, want the router's 503", sent, a.StatusCode, a.code)
	}
	if !g.healthy(owner) || !g.healthy(survivor) {
		t.Fatalf("healthy ring %v lost a partitioned ladder member below its failure threshold", g.r.HealthyBackends())
	}
	if got := third.meshHits.Load() + third.probeHits.Load(); got != 0 {
		t.Fatalf("%d round trips reached the third backend with both ladder members down", got)
	}
	if st := g.r.Stats(); st.Retries != requests+1 {
		t.Fatalf("request %d: retries = %d, want %d", sent, st.Retries, requests+1)
	}
	g.part.set(survivor.ts.URL, false)

	// The owner's failed read, then the third's read and forward: one
	// failover attempt.
	g.r.ejectBackend(survivor.ts.URL)
	post(third, requests+2)
	if got := third.probeHits.Load(); got != 1 {
		t.Fatalf("third backend's cache read %d times, want once", got)
	}
}
