package serve

import (
	"context"
	"math"
	"net/url"
	"testing"

	"repro/internal/wire"
)

// TestRetryAfterTracksLatency: the Retry-After hint is derived from
// the rejected waiter's queue position — the queued jobs plus its own
// run, each a median lease — so a loaded server tells clients to back
// off for about as long as capacity takes to free up: 1 s on a fast
// server, ≥ 10 s with four jobs queued behind 3 s leases, within the
// [1, 30] clamp and ±20 % jitter either way.
func TestRetryAfterTracksLatency(t *testing.T) {
	runPool(t, poolRow{size: 1, act: func(t *testing.T, s *Server, p *Pool) {
		s.retryJitter = func() float64 { return 0.5 } // ×1.0
		for i := 0; i < 100; i++ {
			s.mLeaseSeconds.Observe(0.01)
		}
		if got := s.retryAfterSeconds(); got != 1 {
			t.Errorf("fast-server hint = %ds, want 1", got)
		}
		for i := 0; i < 1000; i++ {
			s.mLeaseSeconds.Observe(3)
		}
		hold := checkout(t, p)
		queued, unqueue := context.WithCancel(context.Background())
		var waiters []<-chan error
		for i := 0; i < 4; i++ {
			waiters = append(waiters, waiting(t, p, queued))
		}
		var hints []int
		for _, j := range []float64{0, 0.5, 1} {
			s.retryJitter = func() float64 { return j }
			hints = append(hints, s.retryAfterSeconds())
		}
		if hints[1] < 10 || hints[0] > hints[1] || hints[1] > hints[2] || hints[0] < 1 || hints[2] > 30 {
			t.Errorf("hints %v at jitter 0, ½, 1: want ≥ 10 s in the middle, ordered, within [1, 30]", hints)
		}
		unqueue()
		for _, w := range waiters {
			<-w
		}
		hold.Release()
	}})
}

// TestRetryAfterMonotoneInQueuePosition: the raw estimate grows with
// queue position — a rejection from a deep queue never tells its client
// to come back sooner than a rejection from a shallow one.
func TestRetryAfterMonotoneInQueuePosition(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 2})
	for i := 0; i < 100; i++ {
		srv.mLeaseSeconds.Observe(0.8)
	}
	for pos := int64(1); pos <= 32; pos++ {
		if prev, est := srv.waitEstimate(pos-1, 0.50), srv.waitEstimate(pos, 0.50); est < prev {
			t.Fatalf("pos %d -> %gs, pos %d -> %gs: not monotone", pos-1, prev, pos, est)
		}
	}
	if srv.waitEstimate(32, 0.50) <= srv.waitEstimate(0, 0.50) {
		t.Fatal("the estimate is flat across queue depth")
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
	q, _ := url.ParseQuery(qs)
	return q
}

// TestParseMeshSpecHostile: every hostile/boundary knob yields a parse
// error from the shared query→MeshSpec path (the HTTP layer turns it
// into a 400), never a NaN-configured run. delta=NaN once slipped
// through because ParseFloat accepts "NaN" and NaN <= 0 is false.
func TestParseMeshSpecHostile(t *testing.T) {
	for _, qs := range hostileParams {
		if _, err := wire.MeshSpecFromQuery(queryValues(qs)); err == nil {
			t.Errorf("query %q accepted, want an error", qs)
		}
	}
}

// checkSaneMeshSpec is the fuzz oracle shared by the query and JSON
// surfaces: anything either parser accepts must be a sane engine
// configuration — finite non-negative knobs, a radius-edge bound at or
// above the provable 2, a non-negative element budget and timeout, a
// known format — that passes its own validation.
func checkSaneMeshSpec(t *testing.T, m wire.MeshSpec, input string) {
	t.Helper()
	for _, v := range []float64{m.Delta, m.MaxRadiusEdge, m.MinFacetAngle} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("accepted %+v from %q: a NaN, infinite or negative knob would reach the engine", m, input)
		}
	}
	if (m.MaxRadiusEdge != 0 && m.MaxRadiusEdge < 2) || m.MaxElements < 0 || m.Timeout < 0 || (m.Format != "vtk" && m.Format != "off") || m.Validate() != nil {
		t.Fatalf("accepted %+v from %q", m, input)
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
		if m, err := wire.MeshSpecFromQuery(queryValues(qs)); err == nil {
			checkSaneMeshSpec(t, m, qs)
		}
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
		if m, err := wire.ParseMeshSpec([]byte(body)); err == nil {
			checkSaneMeshSpec(t, m, body)
		}
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
		sane := (sp.Format == "vtk" || sp.Format == "summary") && len(sp.Dirichlet) > 0 &&
			sp.Solve.Tol >= 0 && sp.Solve.MaxIter >= 0 && sp.Solve.Timeout >= 0
		for _, bc := range sp.Dirichlet {
			sane = sane && !math.IsNaN(bc.Value) && !math.IsInf(bc.Value, 0)
		}
		if c := sp.Conductivity; c != nil {
			for _, v := range c.PerLabel {
				sane = sane && v > 0 && !math.IsInf(v, 0)
			}
		}
		if !sane {
			t.Fatalf("accepted %+v from %q", sp, body)
		}
	})
}
