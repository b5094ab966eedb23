package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/url"
	"testing"
	"time"

	"repro/internal/wire"
)

// pin is everything a client or the router can observe of one response.
// The behaviour-pin rows in server_test.go, cacheonly_test.go and
// simulate_test.go assert all of it, so a rewrite of the request path
// cannot change a status, an envelope, a header or a body byte unseen.
type pin struct {
	status    int
	code      string // envelope code ("" on a 2xx/304)
	etag      string
	ctype     string
	cacheOnly string // X-Pi2md-Cache-Only
	brownout  string // X-Pi2md-Brownout
	sha       string // hex SHA-256 of the body
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// envelope is the exact body of an error response without a Retry-After.
func envelope(code, reason string) []byte {
	r, _ := json.Marshal(reason)
	return []byte(`{"error":{"code":"` + code + `","reason":` + string(r) + "}}\n")
}

// doPin checks an answer against want, returning the body for rows that
// compare later answers with it.
func doPin(t *testing.T, name string, a answer, want pin) []byte {
	t.Helper()
	got := pin{
		status:    a.StatusCode,
		code:      a.code,
		etag:      a.Header.Get("ETag"),
		ctype:     a.Header.Get("Content-Type"),
		cacheOnly: a.Header.Get(wire.CacheOnlyHeader),
		brownout:  a.Header.Get(BrownoutHeader),
		sha:       sha(a.body),
	}
	if got != want {
		t.Errorf("%s:\n got %+v\nwant %+v\nbody %.200q", name, got, want, a.body)
	}
	return a.body
}

// TestRetryAfterTracksLatency: the Retry-After hint is derived from
// the rejected waiter's actual queue position — queued/pool lease
// slots plus its own run, each a median lease — instead of a flat wait
// quantile, so a loaded server tells clients to back off for about as
// long as capacity actually takes to free up.
func TestRetryAfterTracksLatency(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	srv.retryJitter = func() float64 { return 0.5 } // ×1.0: deterministic

	// Fast service: sub-millisecond leases round up to the 1s floor.
	for i := 0; i < 100; i++ {
		srv.mLeaseSeconds.Observe(0.01)
	}
	if got := srv.retryAfterSeconds(); got != 1 {
		t.Errorf("fast-server hint = %ds, want 1", got)
	}

	// Load arrives: leases land in the 5s bucket and four jobs are
	// already queued — the hint must account for draining all of them
	// before the retrier's own run.
	for i := 0; i < 1000; i++ {
		srv.mLeaseSeconds.Observe(3)
	}
	hold, err := srv.pool.Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued, unqueue := context.WithCancel(context.Background())
	for i := 0; i < 4; i++ {
		go func() {
			if l, err := srv.pool.Checkout(queued); err == nil {
				l.Release()
			}
		}()
	}
	waitWaiters(t, srv.pool, 4)
	slow := srv.retryAfterSeconds()
	if slow < 10 {
		t.Errorf("loaded-server hint = %ds, want >= 10 ((4 queued + 1) x p50 lease ~5s)", slow)
	}
	if slow > 30 {
		t.Errorf("hint = %ds exceeds the 30s clamp", slow)
	}

	// Jitter stays inside ±20% and respects the clamps.
	srv.retryJitter = func() float64 { return 0 }
	low := srv.retryAfterSeconds()
	srv.retryJitter = func() float64 { return 1 }
	high := srv.retryAfterSeconds()
	if low > high {
		t.Errorf("jitter inverted: low=%d high=%d", low, high)
	}
	if low < 1 || high > 30 {
		t.Errorf("jittered hints %d..%d escape the [1,30] clamp", low, high)
	}
	unqueue()
	hold.Release()
}

// TestRetryAfterMonotoneInQueuePosition: the raw estimate is
// nondecreasing in queue position — a rejection from a deep queue
// never tells its client to come back sooner than a rejection from a
// shallow one.
func TestRetryAfterMonotoneInQueuePosition(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 2})
	for i := 0; i < 100; i++ {
		srv.mLeaseSeconds.Observe(0.8)
	}
	prev := -1.0
	for pos := int64(0); pos <= 32; pos++ {
		est := srv.waitEstimate(pos, 0.50)
		if est < prev {
			t.Fatalf("estimate not monotone: pos %d -> %gs, pos %d -> %gs", pos-1, prev, pos, est)
		}
		prev = est
	}
	if srv.waitEstimate(32, 0.50) <= srv.waitEstimate(0, 0.50) {
		t.Fatalf("estimate flat across queue depth: deep=%g shallow=%g",
			srv.waitEstimate(32, 0.50), srv.waitEstimate(0, 0.50))
	}
}

// hostileParams is the shared oracle: the query surface must reject
// these outright (no panic, no NaN/Inf/non-positive knob reaching the
// engine).
var hostileParams = []string{
	"delta=NaN",
	"delta=nan",
	"delta=+Inf",
	"delta=-Inf",
	"delta=Infinity",
	"delta=-1",
	"delta=0",
	"delta=1e",
	"max_radius_edge=NaN",
	"max_radius_edge=Inf",
	"max_radius_edge=1.9",
	"max_radius_edge=-2",
	"min_facet_angle=NaN",
	"min_facet_angle=-30",
	"max_elements=-1",
	"max_elements=2.5",
	"max_elements=NaN",
	"timeout=-5s",
	"timeout=0s",
	"timeout=NaN",
	"format=evil",
	"format=vtk%00",
}

func queryValues(qs string) url.Values {
	u, err := url.Parse("/v1/mesh?" + qs)
	if err != nil {
		return url.Values{}
	}
	return u.Query()
}

// TestParseMeshSpecHostile: every hostile/boundary knob yields a parse
// error from the shared query→MeshSpec path (the HTTP layer turns it
// into a 400), never a NaN-configured run. delta=NaN previously
// slipped through because ParseFloat accepts "NaN" and NaN <= 0 is
// false.
func TestParseMeshSpecHostile(t *testing.T) {
	for _, qs := range hostileParams {
		if _, err := wire.MeshSpecFromQuery(queryValues(qs)); err == nil {
			t.Errorf("query %q accepted, want an error", qs)
		}
	}
	// Sanity: the legitimate knobs still parse.
	spec, err := wire.MeshSpecFromQuery(queryValues(
		"format=off&delta=0.5&max_elements=1000&max_radius_edge=2.2&min_facet_angle=25&timeout=30s"))
	if err != nil {
		t.Fatalf("legitimate query rejected: %v", err)
	}
	if spec.Format != "off" || spec.Delta != 0.5 || spec.MaxElements != 1000 ||
		spec.MaxRadiusEdge != 2.2 || spec.MinFacetAngle != 25 ||
		time.Duration(spec.Timeout) != 30*time.Second {
		t.Errorf("parsed spec %+v does not match the query", spec)
	}
}

// checkSaneMeshSpec is the fuzz oracle shared by the query and JSON
// surfaces: anything either parser accepts must be a sane engine
// configuration.
func checkSaneMeshSpec(t *testing.T, m wire.MeshSpec, input string) {
	t.Helper()
	for name, v := range map[string]float64{
		"delta":           m.Delta,
		"max_radius_edge": m.MaxRadiusEdge,
		"min_facet_angle": m.MinFacetAngle,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("accepted %s=%v from %q (NaN/Inf/negative would reach the engine)", name, v, input)
		}
	}
	if m.MaxRadiusEdge != 0 && m.MaxRadiusEdge < 2 {
		t.Fatalf("accepted max_radius_edge=%v below the provable bound from %q", m.MaxRadiusEdge, input)
	}
	if m.MaxElements < 0 {
		t.Fatalf("accepted max_elements=%d from %q", m.MaxElements, input)
	}
	if m.Timeout < 0 {
		t.Fatalf("accepted timeout=%v from %q", time.Duration(m.Timeout), input)
	}
	if m.Format != "vtk" && m.Format != "off" {
		t.Fatalf("accepted format=%q from %q", m.Format, input)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("accepted a spec that fails its own validation from %q: %v", input, err)
	}
}

// FuzzParseMeshParams: arbitrary query strings must never panic the
// parser, and anything it accepts must be a sane engine configuration
// — finite positive floats, non-negative element budget, radius-edge
// at or above the provable bound, positive timeout.
func FuzzParseMeshParams(f *testing.F) {
	for _, qs := range hostileParams {
		f.Add(qs)
	}
	f.Add("format=vtk&delta=0.5")
	f.Add("delta=1e309")
	f.Add("delta=0x1p-1074")
	f.Add("max_radius_edge=2&min_facet_angle=1e-300")
	f.Add("timeout=9999999999999999999ns")
	f.Add("delta=%GG&max_elements=+0")
	f.Fuzz(func(t *testing.T, qs string) {
		q := url.Values{}
		if u, err := url.Parse("/v1/mesh?" + qs); err == nil {
			q = u.Query()
		}
		m, err := wire.MeshSpecFromQuery(q)
		if err != nil {
			return
		}
		checkSaneMeshSpec(t, m, qs)
	})
}

// FuzzParseMeshSpec: the JSON body surface holds to the same oracle as
// the query surface — one shared validation path means one shared
// fuzz contract.
func FuzzParseMeshSpec(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"delta": 0.5, "format": "off"}`)
	f.Add(`{"delta": null}`)
	f.Add(`{"delta": 1e309}`)
	f.Add(`{"max_radius_edge": 1.99}`)
	f.Add(`{"timeout": "30s"}`)
	f.Add(`{"timeout": 30}`)
	f.Add(`{"timeout": "-5s"}`)
	f.Add(`{"version": 99}`)
	f.Add(`{"unknown_knob": 1}`)
	f.Add(`{"size": {"per_label": {"1": 2}, "balls": [{"center": [8,8,8], "r": 4, "h": 0.5}]}}`)
	f.Add(`{"size": {"per_label": {"evil": 2}}}`)
	f.Add(`{"size": {"balls": [{"center": [0,0,0], "r": -1, "h": 1}]}}`)
	f.Fuzz(func(t *testing.T, body string) {
		m, err := wire.ParseMeshSpec([]byte(body))
		if err != nil {
			return
		}
		checkSaneMeshSpec(t, m, body)
	})
}

// FuzzParseSimSpec: arbitrary JSON must never panic the simulation
// spec parser, and anything it accepts must be fully sane — validated
// mesh knobs, positive finite conductivities, well-formed predicates,
// at least one Dirichlet clause, non-negative solver bounds.
func FuzzParseSimSpec(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"dirichlet": [{"value": 0}]}`)
	f.Add(`{"dirichlet": [{"label": 1, "value": 0}], "conductivity": {"per_label": {"1": 2.5}}}`)
	f.Add(`{"dirichlet": [{"plane": {"axis": "z", "side": "min"}, "value": 1}], "source": {"uniform": 1}}`)
	f.Add(`{"dirichlet": [{"sphere": {"center": [8,8,8], "r": 3}, "value": 2}]}`)
	f.Add(`{"dirichlet": [{"value": "NaN"}]}`)
	f.Add(`{"dirichlet": [{"plane": {"axis": "w", "side": "min"}, "value": 0}]}`)
	f.Add(`{"dirichlet": [{"value": 0}], "solve": {"tol": -1}}`)
	f.Add(`{"dirichlet": [{"value": 0}], "solve": {"timeout": "1h"}}`)
	f.Add(`{"dirichlet": [{"value": 0}], "mesh": {"delta": 0}}`)
	f.Add(`{"dirichlet": [{"value": 0}], "conductivity": {"per_label": {"1": -1}}}`)
	f.Add(`{"version": 2, "dirichlet": [{"value": 0}]}`)
	f.Fuzz(func(t *testing.T, body string) {
		sp, err := wire.ParseSimSpec([]byte(body))
		if err != nil {
			return
		}
		checkSaneMeshSpec(t, sp.Mesh, body)
		if sp.Format != "vtk" && sp.Format != "summary" {
			t.Fatalf("accepted format=%q from %q", sp.Format, body)
		}
		if len(sp.Dirichlet) == 0 {
			t.Fatalf("accepted a spec with no dirichlet clauses from %q", body)
		}
		for _, bc := range sp.Dirichlet {
			if math.IsNaN(bc.Value) || math.IsInf(bc.Value, 0) {
				t.Fatalf("accepted non-finite dirichlet value from %q", body)
			}
		}
		if c := sp.Conductivity; c != nil {
			for k, v := range c.PerLabel {
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted conductivity %s=%v from %q", k, v, body)
				}
			}
		}
		if sp.Solve.Tol < 0 || sp.Solve.MaxIter < 0 || sp.Solve.Timeout < 0 {
			t.Fatalf("accepted negative solver bounds from %q", body)
		}
	})
}
