package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/wire"
)

// TestSimulateEndToEnd solves -Δu = 1 with u = 0 on the meshed sphere
// boundary through the full serving stack and checks the discrete
// field against the analytic solution u(r) = (R² - r²)/6, whose maximum
// is R²/6: the answer carries the field as VTK POINT_DATA and the JSON
// summary in a header, and format=summary, its mesh now a cache hit,
// returns the summary alone, of the same field.
func TestSimulateEndToEnd(t *testing.T) {
	const spec = `"dirichlet": [{"value": 0}], "source": {"uniform": 1}, "solve": {"tol": 1e-9}}`
	runEndings(t, endingRow{name: "a Poisson solve, then its summary",
		setup: func(t *testing.T, r *endingRig) { r.base = nrrdBody(t, 32); r.ref = r.simulate("{" + spec) },
		act: func(t *testing.T, r *endingRig) answer {
			var s, again SimSummary
			json.Unmarshal([]byte(r.ref.Header.Get("X-Simulate-Summary")), &s)
			a := r.simulate(`{"format": "summary", ` + spec)
			json.Unmarshal(a.body, &again)
			// R = 0.35·scale, the phantom's radius. The serving mesh is the
			// raw refinement snapshot (no surface smoothing), so the
			// tolerance is looser than the fem package's own analytic test.
			wantMax := 0.35 * 32 * 0.35 * 32 / 6
			switch {
			case r.ref.StatusCode != 200 || !bytes.Contains(r.ref.body, []byte("SCALARS u double 1")):
				t.Errorf("the VTK answer (%d) lacks the POINT_DATA field", r.ref.StatusCode)
			case s.FieldMax < wantMax*0.75 || s.FieldMax > wantMax*1.25 || s.FieldMin < -wantMax*0.05:
				t.Errorf("field in [%g, %g], want [0, ~%g]", s.FieldMin, s.FieldMax, wantMax)
			case s.Iterations < 1 || s.Residual > 1e-8 || s.ConstrainedVertices < 1 || s.Quality.MinDihedralDeg <= 0:
				t.Errorf("summary %+v", s)
			case !again.CacheHit || again.FieldMax != s.FieldMax:
				t.Errorf("the summary answer %+v: want the same field, its mesh from the cache", again)
			}
			if r.srv.mSolveSeconds.Count() != 2 || r.srv.mSolveIters.Count() != 2 {
				t.Errorf("solve metrics: %d seconds, %d iteration observations, want 2 each", r.srv.mSolveSeconds.Count(), r.srv.mSolveIters.Count())
			}
			return a
		},
		want:  simulated("application/json", "c614029ff31c91f4d02bb5db097cd1886e589847e73b5b3e1280d8bdc06b8740"),
		moved: with(cacheHit1, "simulate:ok", 1)})
}

// TestSimulateSharedMeshTwoSolves: two simulate requests agreeing on
// (image, mesh variant) but not on boundary conditions share one
// meshing run, coalesced, and each gets its own field: with no source
// and u = v on the whole boundary, the constant v.
func TestSimulateSharedMeshTwoSolves(t *testing.T) {
	spec := func(v int) string { return fmt.Sprintf(`{"format": "summary", "dirichlet": [{"value": %d}]}`, v) }
	constant := func(t *testing.T, a answer, v float64) SimSummary {
		var s SimSummary
		if err := json.Unmarshal(a.body, &s); err != nil || s.FieldMin < v-1e-6 || s.FieldMax > v+1e-6 {
			t.Errorf("field in [%g, %g] (%v), want the constant %g", s.FieldMin, s.FieldMax, err, v)
		}
		return s
	}
	runEndings(t, endingRow{name: "two solves, one mesh", setup: solvable,
		moved: with(coalesced(1), "simulate:ok", 2),
		act: func(t *testing.T, r *endingRig) answer {
			lead := func() ending { r.ref = r.simulate(spec(1)); return r.ref.ending() }
			a := r.withLeader(ending{200, ""}, lead, func() func() answer {
				return r.joining(2, func() answer { return r.simulate(spec(2)) })
			})
			if s1, s2 := constant(t, r.ref, 1), constant(t, a, 2); s1.Cells != s2.Cells || !s2.Coalesced {
				t.Errorf("the solves ran on meshes of %d and %d cells, the second coalesced: %v", s1.Cells, s2.Cells, s2.Coalesced)
			}
			return a
		},
		want: simulated("application/json", "e4956ca701de7316a0748149700cf7205fd8d6f0209f0a20b2ec19ddb71a83b4")})
}

// TestSimulateBadBC: a malformed spec is refused before any meshing;
// boundary conditions that constrain no vertex of the mesh are the
// client's fault, found after the mesh stage, whose mesh stays cached.
func TestSimulateBadBC(t *testing.T) {
	r := newEndingRig(t, 1)
	r.base = nrrdBody(t, 16)
	if e := r.simulate(`{"dirichlet": []}`).ending(); e != (ending{400, wire.CodeBadRequest}) {
		t.Errorf("an empty dirichlet list answered %+v", e)
	}
	if n := r.srv.mRunSeconds.Count(); n != 0 {
		t.Errorf("a malformed spec made %d runs, want 0", n)
	}
	e := r.simulate(`{"dirichlet": [{"sphere": {"center": [1000, 1000, 1000], "r": 1}, "value": 0}]}`).ending()
	if e != (ending{400, wire.CodeBadBC}) {
		t.Errorf("an unmatchable BC answered %+v", e)
	}
	if !cached(r.srv.cache, wire.ImageKey(r.base), "") {
		t.Error("the mesh under an unmatchable BC was not cached")
	}
}

// TestSimulateSolveCanceled: a client gone before its solve starts gets
// 499 canceled; the mesh stage was a cache hit, and the cached mesh
// serves the next solve without a run.
func TestSimulateSolveCanceled(t *testing.T) {
	r := newEndingRig(t, 1)
	r.base = nrrdBody(t, 16)
	r.meshOK()
	spec := `{"dirichlet": [{"value": 0}], "source": {"uniform": 1}}`
	body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(spec), "image": r.base})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if e := r.direct(ctx, "/v1/simulate", ctype, body).ending(); e != (ending{wire.StatusClientClosedRequest, wire.CodeCanceled}) {
		t.Errorf("the canceled solve answered %+v", e)
	}
	if e := r.simulate(spec).ending(); e != (ending{200, ""}) {
		t.Errorf("the next solve answered %+v", e)
	}
	if n := r.srv.mRunSeconds.Count(); n != 1 {
		t.Errorf("%d runs, want the one that primed the cache", n)
	}
}
