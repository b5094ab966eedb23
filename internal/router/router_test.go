package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// stubBackend is a minimal pi2md stand-in: /readyz always ready,
// /v1/mesh counts hits and echoes a per-backend node header, with an
// optional gate to hold requests in flight.
type stubBackend struct {
	ts   *httptest.Server
	hits atomic.Int64
	gate chan struct{} // non-nil: /v1/mesh blocks until closed
}

func newStubFleet(t *testing.T, n int) []*stubBackend {
	t.Helper()
	fleet := make([]*stubBackend, n)
	for i := range fleet {
		b := &stubBackend{}
		id := fmt.Sprintf("stub-%d", i)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "ready\n")
		})
		mux.HandleFunc("POST /", func(w http.ResponseWriter, r *http.Request) {
			b.hits.Add(1)
			if b.gate != nil {
				<-b.gate
			}
			io.Copy(io.Discard, r.Body)
			w.Header().Set(wire.NodeHeader, id)
			io.WriteString(w, "mesh\n")
		})
		b.ts = httptest.NewServer(mux)
		t.Cleanup(b.ts.Close)
		fleet[i] = b
	}
	return fleet
}

func fleetURLs(fleet []*stubBackend) []string {
	urls := make([]string, len(fleet))
	for i, b := range fleet {
		urls[i] = b.ts.URL
	}
	return urls
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

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Jitter == nil {
		cfg.Jitter = func() float64 { return 0.5 } // pin: no jitter in tests
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// probeAll drives one deterministic probe round.
func probeAll(r *Router, fleet []*stubBackend) {
	for _, b := range fleet {
		r.ProbeOnce(b.ts.URL)
	}
}

// meshRouteKey mirrors planRoute's derivation for a spec-less
// /v1/mesh POST.
func meshRouteKey(t *testing.T, body []byte) string {
	t.Helper()
	spec, err := wire.MeshSpecFromQuery(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	return routeKey(wire.ImageKey(body), spec.Variant())
}

func postMesh(t *testing.T, rts *httptest.Server, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/mesh", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterRoutesConsistently: the same image body always lands on
// the same backend, and the job ledger stays balanced.
func TestRouterRoutesConsistently(t *testing.T) {
	fleet := newStubFleet(t, 3)
	r := newTestRouter(t, Config{Backends: fleetURLs(fleet)})
	probeAll(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	body := []byte("fake-nrrd-payload-A")
	var node string
	for i := 0; i < 5; i++ {
		resp := postMesh(t, rts, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		got := resp.Header.Get(wire.NodeHeader)
		resp.Body.Close()
		if got == "" {
			t.Fatal("relayed response lost the node header")
		}
		if node == "" {
			node = got
		} else if got != node {
			t.Fatalf("request %d landed on %s, earlier ones on %s", i, got, node)
		}
	}
	var total int64
	for _, b := range fleet {
		total += b.hits.Load()
	}
	if total != 5 {
		t.Fatalf("fleet saw %d hits, want 5 on one backend", total)
	}
	st := r.Stats()
	if st.ProxiedJobs != 5 || st.CompletedJobs != 5 || st.FailedJobs != 0 {
		t.Fatalf("ledger: proxied=%d completed=%d failed=%d", st.ProxiedJobs, st.CompletedJobs, st.FailedJobs)
	}
	if owner := r.Owner(meshRouteKey(t, body)); owner == "" {
		t.Fatal("healthy ring has no owner for the key")
	}
}

// TestRouterFailoverToReplica: with the owner partitioned away, the
// buffered body is replayed against the next ring replica and the
// request still succeeds; the failures eject the owner.
func TestRouterFailoverToReplica(t *testing.T) {
	fleet := newStubFleet(t, 3)
	part := &partition{}
	r := newTestRouter(t, Config{
		Backends:      fleetURLs(fleet),
		FailThreshold: 2,
		Transport:     part,
	})
	probeAll(r, fleet)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	body := []byte("fake-nrrd-payload-B")
	owner := r.Owner(meshRouteKey(t, body))
	part.set(owner, true)

	for i := 0; i < 2; i++ {
		resp := postMesh(t, rts, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failover request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Two transport failures crossed FailThreshold: the owner must be
	// ejected without waiting for the prober.
	for _, h := range r.HealthyBackends() {
		if h == owner {
			t.Fatalf("owner %s still in ring after %d proxy failures", owner, 2)
		}
	}
	if got := r.mProxied.Value(owner, outcomeTransportErr); got != 2 {
		t.Fatalf("owner transport_error count = %d, want 2", got)
	}
	// Rejoin: heal the partition, one passing probe restores membership.
	part.set(owner, false)
	r.ProbeOnce(owner)
	found := false
	for _, h := range r.HealthyBackends() {
		found = found || h == owner
	}
	if !found {
		t.Fatalf("owner %s did not rejoin after a passing probe", owner)
	}
}

// TestRouterUnavailableEnvelope: with every backend unreachable the
// router's 503 carries the shared error envelope and a Retry-After
// inside the [1,30]s clamp, mirroring the backend's own policy.
func TestRouterUnavailableEnvelope(t *testing.T) {
	fleet := newStubFleet(t, 2)
	part := &partition{}
	for _, b := range fleet {
		part.set(b.ts.URL, true)
	}
	r := newTestRouter(t, Config{Backends: fleetURLs(fleet), Transport: part})
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	resp := postMesh(t, rts, []byte("fake-nrrd-payload-D"), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	sec, err := strconv.Atoi(ra)
	if err != nil || sec < 1 || sec > 30 {
		t.Fatalf("Retry-After %q outside the [1,30]s clamp", ra)
	}
	var env struct {
		Error struct {
			Code        string `json:"code"`
			Reason      string `json:"reason"`
			RetryAfterS int    `json:"retry_after_s"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if env.Error.Code != wire.CodeUnavailable || env.Error.Reason == "" {
		t.Fatalf("envelope = %+v, want code %q with a reason", env.Error, wire.CodeUnavailable)
	}
	if env.Error.RetryAfterS != sec {
		t.Fatalf("retry_after_s=%d disagrees with header %d", env.Error.RetryAfterS, sec)
	}
	if st := r.Stats(); st.ProxiedJobs != st.CompletedJobs+st.FailedJobs {
		t.Fatalf("ledger unbalanced: %+v", st)
	}
}

// TestRouterReadyzLifecycle: not ready before any probe passes, ready
// after, not ready again once the fleet is ejected — and the ring
// rebalance counter moves only on transitions.
func TestRouterReadyzLifecycle(t *testing.T) {
	fleet := newStubFleet(t, 2)
	part := &partition{}
	r := newTestRouter(t, Config{Backends: fleetURLs(fleet), FailThreshold: 2, Transport: part})
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	get := func(path string) int {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-probe readyz = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 regardless of fleet state", code)
	}
	probeAll(r, fleet)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("post-probe readyz = %d, want 200", code)
	}
	after := r.Stats().Rebalances
	if after != 2 {
		t.Fatalf("rebalances = %d after two joins, want 2", after)
	}
	probeAll(r, fleet) // steady state: no transitions, no rebalances
	if got := r.Stats().Rebalances; got != after {
		t.Fatalf("steady-state probe caused a rebalance (%d → %d)", after, got)
	}
	for _, b := range fleet {
		part.set(b.ts.URL, true)
	}
	probeAll(r, fleet)
	probeAll(r, fleet) // second consecutive failure crosses FailThreshold=2
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-ejection readyz = %d, want 503", code)
	}
	if got := r.Stats().Rebalances; got != after+2 {
		t.Fatalf("rebalances = %d after two ejections, want %d", got, after+2)
	}
}
