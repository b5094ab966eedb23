package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// stubETag is the raw etag every stub's mesh answers and cache hits
// carry, stubEntity its VTK entity tag.
const stubETag = "0123456789abcdef"

var stubEntity = wire.EntityTag(stubETag, "vtk")

// deadBackend is a configured backend that never passes a probe.
const deadBackend = "http://127.0.0.1:9"

// cacheStub is a pi2md stand-in whose answers say which path served:
// /v1/mesh answers "full-<id>", /v1/simulate "solved-<id>", and the
// cache read "cached-<id>" while cached is set, a 404 cache_miss
// otherwise. /v1/drain announces drainKeys.
type cacheStub struct {
	ts         *httptest.Server
	id         string
	meshHits   atomic.Int64
	probeHits  atomic.Int64
	drainCalls atomic.Int64
	cached     atomic.Bool
	drainKeys  []map[string]string

	// How /v1/mesh misbehaves, when set.
	untagged   atomic.Bool  // it answers without an ETag, so nothing is learned from it
	status     atomic.Int64 // it answers this status's error envelope, tagged as ever
	dieMidBody atomic.Bool  // it promises 1 MiB, sends a few bytes and drops the connection
	hold       atomic.Bool  // it answers nothing until the request ends
}

func newStub(t *testing.T, id string) *cacheStub {
	b := &cacheStub{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("POST /v1/mesh", func(w http.ResponseWriter, r *http.Request) {
		b.meshHits.Add(1)
		io.Copy(io.Discard, r.Body)
		if b.hold.Load() {
			<-r.Context().Done()
			return
		}
		w.Header().Set(wire.NodeHeader, b.id)
		if !b.untagged.Load() {
			w.Header().Set("ETag", stubEntity)
		}
		switch status := int(b.status.Load()); {
		case b.dieMidBody.Load():
			w.Header().Set("Content-Length", "1048576")
			io.WriteString(w, "only-a-few-bytes")
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		case status >= 500:
			wire.WriteError(w, status, wire.CodeInternal, "stub failure")
		case status >= 400:
			wire.WriteError(w, status, wire.CodeBadRequest, "stub refusal")
		default:
			io.WriteString(w, "full-"+b.id)
		}
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
		w.Header().Set(wire.NodeHeader, b.id)
		w.Header().Set("ETag", stubEntity)
		w.Header().Set(wire.CacheOnlyHeader, "hit")
		if wire.ETagMatch(r.Header.Get("If-None-Match"), stubEntity) {
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
	return b
}

// partition is a RoundTripper that refuses connections to backends
// marked down — the test's network fault surface, shared by probes
// and proxying exactly as the real transport is.
type partition struct {
	mu   sync.Mutex
	down map[string]bool
}

func (p *partition) set(base string, isDown bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down == nil {
		p.down = map[string]bool{}
	}
	p.down[base] = isDown
}

func (p *partition) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	d := p.down[req.URL.Scheme+"://"+req.URL.Host]
	p.mu.Unlock()
	if d {
		return nil, errors.New("connection refused (test partition)")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// rig is a router whose transport is a partition, every backend it was
// built over probed once, behind an httptest front: how every router
// test but the soak reaches a router.
type rig struct {
	t     *testing.T
	r     *Router
	ts    *httptest.Server
	part  *partition
	fleet []*cacheStub // newRig's stubs, in the order configured
	body  []byte       // newRig's upload, whose ladder names the stubs' roles
	roles map[string]string
	busy  sync.WaitGroup // the router's handlers still running
}

// routeTo builds a rig over cfg.Backends and urls, probing urls once
// each. Retry-After jitter is pinned.
func routeTo(t *testing.T, cfg Config, urls ...string) *rig {
	t.Helper()
	g := &rig{t: t, part: &partition{}}
	cfg.Backends = append(cfg.Backends, urls...)
	cfg.Transport = g.part
	cfg.Jitter = func() float64 { return 0.5 }
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range urls {
		r.ProbeOnce(u)
	}
	h := r.Handler()
	g.r = r
	g.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		g.busy.Add(1)
		defer g.busy.Done()
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(g.ts.Close)
	return g
}

// newRig builds a rig over n fresh stubs (after cfg.Backends). The
// stubs' roles are their places on g.body's ladder: owner, survivor,
// third.
func newRig(t *testing.T, n int, cfg Config) *rig {
	t.Helper()
	fleet := make([]*cacheStub, n)
	urls := make([]string, n)
	for i := range fleet {
		fleet[i] = newStub(t, fmt.Sprintf("stub-%d", i))
		urls[i] = fleet[i].ts.URL
	}
	g := routeTo(t, cfg, urls...)
	g.fleet, g.body, g.roles = fleet, []byte("fake-nrrd-payload"), map[string]string{}
	for i, b := range g.ladder(g.body) {
		g.roles[b.ts.URL] = []string{"owner", "survivor", "third"}[i]
	}
	return g
}

// meshKey is the route key of a /v1/mesh upload of body under the
// default spec, whose variant is empty.
func meshKey(body []byte) string { return routeKey(wire.ImageKey(body), "") }

// ladder is the stubs in the order the healthy ring tries them for
// body's default-spec key: its owner first.
func (g *rig) ladder(body []byte) []*cacheStub {
	g.r.mu.Lock()
	urls := g.r.ring.Replicas(meshKey(body), g.r.ring.Size())
	g.r.mu.Unlock()
	var out []*cacheStub
	for _, u := range urls {
		for _, b := range g.fleet {
			if b.ts.URL == u {
				out = append(out, b)
			}
		}
	}
	return out
}

func (g *rig) healthy(b *cacheStub) bool { return slices.Contains(g.r.HealthyBackends(), b.ts.URL) }

// fails is b's consecutive-failure count in the health ledger.
func (g *rig) fails(b *cacheStub) int {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return g.r.backends[b.ts.URL].fails
}

// answer is what a client sees of one response.
type answer struct {
	*http.Response
	body         []byte
	cut          bool // the body ended before its framing said it would
	code, reason string
	retryAfterS  int // the envelope's retry_after_s
}

func (a answer) cacheOnly() bool { return a.Header.Get(wire.CacheOnlyHeader) == "hit" }

// read drains resp into an answer.
func read(t *testing.T, resp *http.Response) answer {
	t.Helper()
	defer resp.Body.Close()
	a := answer{Response: resp}
	var err error
	a.body, err = io.ReadAll(resp.Body)
	a.cut = err != nil
	if resp.StatusCode >= 400 {
		var env wire.ErrorEnvelope
		json.Unmarshal(a.body, &env)
		a.code, a.reason, a.retryAfterS = env.Error.Code, env.Error.Reason, env.Error.RetryAfterS
	}
	return a
}

const octets = "application/octet-stream"

// call sends a request, with optional header pairs after its body, and
// reads the answer.
func call(t *testing.T, method, url, ctype string, body []byte, hdr ...string) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return read(t, resp)
}

// post sends a POST through the router and returns once the router's
// handler has, so its ledger and ETag table have settled.
func (g *rig) post(path, ctype string, body []byte, hdr ...string) answer {
	g.t.Helper()
	a := call(g.t, http.MethodPost, g.ts.URL+path, ctype, body, hdr...)
	g.busy.Wait()
	return a
}

// mesh posts body to /v1/mesh under the default spec.
func (g *rig) mesh(body []byte, hdr ...string) answer {
	g.t.Helper()
	return g.post("/v1/mesh", "", body, hdr...)
}

// direct serves one POST in-process under ctx: how a test cancels a
// request, which a client cannot hand the router, or sends one with no
// connection behind it.
func (g *rig) direct(ctx context.Context, path string, body []byte) answer {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	g.r.Handler().ServeHTTP(rec, req)
	return read(g.t, rec.Result())
}

// series names the pi2mr_ families the ending table reads; a labelled
// sample reads as "name:label[,label]", a stub's URL by its role.
var series = map[string]string{
	"pi2mr_jobs_total":                 "jobs",
	"pi2mr_completed_jobs_total":       "completed",
	"pi2mr_failed_jobs_total":          "failed",
	"pi2mr_retries_total":              "retries",
	"pi2mr_etag_304_total":             "etag_304",
	"pi2mr_replica_cache_hits_total":   "replica_hits",
	"pi2mr_replica_cache_misses_total": "replica_misses",
	"pi2mr_planned_drains_total":       "drains",
	"pi2mr_proxied_jobs_total":         "proxied",
}

// ledger reads the router's series off its exposition.
func (g *rig) ledger() map[string]int64 {
	var b strings.Builder
	g.r.reg.WritePrometheus(&b)
	out := map[string]int64{}
	for _, line := range strings.Split(b.String(), "\n") {
		sample, val, _ := strings.Cut(line, " ")
		family, labels, _ := strings.Cut(sample, "{")
		name := series[family]
		if name == "" {
			continue
		}
		if labels != "" {
			var vals []string
			for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				_, v, _ := strings.Cut(l, "=")
				v = strings.Trim(v, `"`)
				if role := g.roles[v]; role != "" {
					v = role
				}
				vals = append(vals, v)
			}
			name += ":" + strings.Join(vals, ",")
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		out[name] = n
	}
	return out
}

// TestRouterReadyzLifecycle: not ready before any probe has passed,
// ready once one has, not ready once the fleet is ejected, ready again
// after one passing probe, and live throughout; the ring rebalance
// counter moves only on transitions, and never for a name the router
// was not configured with.
func TestRouterReadyzLifecycle(t *testing.T) {
	fresh, err := New(Config{Backends: []string{deadBackend}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	fresh.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-probe readyz = %d, want 503", rec.Code)
	}

	g := newRig(t, 2, Config{FailThreshold: 2})
	g.r.ProbeOnce(deadBackend)
	g.r.ejectBackend(deadBackend)
	get := func(path string) int {
		return call(t, http.MethodGet, g.ts.URL+path, "", nil).StatusCode
	}
	probeAll := func() {
		for _, b := range g.fleet {
			g.r.ProbeOnce(b.ts.URL)
		}
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("post-probe readyz = %d, want 200", code)
	}
	if got := g.r.Stats().Rebalances; got != 2 {
		t.Fatalf("rebalances = %d after two joins, want 2", got)
	}
	probeAll() // steady state: no transitions, no rebalances
	if got := g.r.Stats().Rebalances; got != 2 {
		t.Fatalf("steady-state probe caused a rebalance (2 → %d)", got)
	}
	for _, b := range g.fleet {
		g.part.set(b.ts.URL, true)
	}
	probeAll()
	probeAll() // second consecutive failure crosses FailThreshold=2
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-ejection readyz = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 regardless of fleet state", code)
	}
	if got := g.r.Stats().Rebalances; got != 4 {
		t.Fatalf("rebalances = %d after two ejections, want 4", got)
	}
	g.part.set(g.fleet[0].ts.URL, false)
	probeAll()
	if code := get("/readyz"); code != http.StatusOK || !g.healthy(g.fleet[0]) {
		t.Fatalf("readyz = %d after a passing probe rejoined %s, want 200", code, g.fleet[0].id)
	}
}
