package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// TestSimulateEndToEnd solves -Δu = 1 with u = 0 on the meshed sphere
// boundary through the full serving stack and checks the discrete
// field against the analytic solution u(r) = (R² - r²)/6: the maximum
// sits near R²/6. Also asserts the response carries the field as VTK
// POINT_DATA plus the JSON summary, and that format=summary returns
// the summary alone.
func TestSimulateEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()
	const scale = 32
	image := nrrdBody(t, scale)

	spec := `{
		"dirichlet": [{"value": 0}],
		"source": {"uniform": 1},
		"solve": {"tol": 1e-9}
	}`
	body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(spec), "image": image})
	a := send(t, client, "POST", ts.URL+"/v1/simulate", ctype, body)
	if a.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d: %s", a.StatusCode, a.body)
	}
	if ct := a.Header.Get("Content-Type"); ct != "text/vtk" {
		t.Errorf("Content-Type = %q, want text/vtk", ct)
	}
	text := string(a.body)
	if !strings.Contains(text, "POINT_DATA") || !strings.Contains(text, "SCALARS u double 1") {
		t.Error("VTK response missing the POINT_DATA field section")
	}
	var summary SimSummary
	if err := json.Unmarshal([]byte(a.Header.Get("X-Simulate-Summary")), &summary); err != nil {
		t.Fatalf("X-Simulate-Summary is not JSON: %v", err)
	}

	// Analytic: u_max = R²/6 with R = 0.35·scale (the phantom's
	// radius). The serving mesh is the raw refinement snapshot (no
	// surface smoothing), so the tolerance is looser than the fem
	// package's own analytic test.
	R := 0.35 * float64(scale)
	wantMax := R * R / 6
	if summary.FieldMax < wantMax*0.75 || summary.FieldMax > wantMax*1.25 {
		t.Errorf("field max = %g, want within 25%% of analytic %g", summary.FieldMax, wantMax)
	}
	if summary.FieldMin < -wantMax*0.05 {
		t.Errorf("field min = %g, want ~0 (boundary value)", summary.FieldMin)
	}
	if summary.Iterations < 1 || summary.Residual > 1e-8 {
		t.Errorf("solver summary: %d iterations, residual %g", summary.Iterations, summary.Residual)
	}
	if summary.ConstrainedVertices < 1 || summary.Cells < 1 || summary.Vertices < 1 {
		t.Errorf("summary sizes: %+v", summary)
	}
	if summary.Quality.MaxRadiusEdge <= 0 || summary.Quality.MinDihedralDeg <= 0 {
		t.Errorf("quality digest empty: %+v", summary.Quality)
	}
	if v := srv.mSimJobs.Value("ok"); v != 1 {
		t.Errorf("simulate_jobs_total{ok} = %d, want 1", v)
	}
	if srv.mSolveSeconds.Count() != 1 || srv.mSolveIters.Count() != 1 {
		t.Errorf("solve metrics: %d seconds obs, %d iter obs, want 1 each",
			srv.mSolveSeconds.Count(), srv.mSolveIters.Count())
	}

	// format=summary answers with the JSON document alone — and the
	// mesh comes from the cache this time (same image, same variant).
	body, ctype = multipartBody(t, map[string][]byte{"image": image,
		"spec": []byte(`{"format": "summary", "dirichlet": [{"value": 0}], "source": {"uniform": 1}, "solve": {"tol": 1e-9}}`)})
	a = send(t, client, "POST", ts.URL+"/v1/simulate", ctype, body)
	if a.StatusCode != http.StatusOK {
		t.Fatalf("summary simulate: %d: %s", a.StatusCode, a.body)
	}
	var summary2 SimSummary
	if err := json.Unmarshal(a.body, &summary2); err != nil {
		t.Fatalf("summary body is not JSON: %v: %s", err, a.body)
	}
	if !summary2.CacheHit {
		t.Error("second simulate over the same (image, variant) did not reuse the cached mesh")
	}
	if summary2.FieldMax != summary.FieldMax {
		t.Errorf("same problem, different fields: %g vs %g", summary2.FieldMax, summary.FieldMax)
	}
	if runs := srv.mRunSeconds.Count(); runs != 1 {
		t.Errorf("meshing runs = %d, want 1 (second simulate must reuse the snapshot)", runs)
	}
}

// TestPinSimulateUploadErrors pins the upload rejections of /v1/simulate
// — the same body-read mapping /v1/mesh has, with simulate's own wording
// for the parts — byte for byte, and their bad_request outcome count.
func TestPinSimulateUploadErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1, MaxRequestBytes: 4 << 10})
	c := ts.Client()
	const spec = `{"dirichlet": [{"value": 0}]}`
	sim := ts.URL + "/v1/simulate"
	row := func(name string, parts map[string][]byte, want pin) {
		t.Helper()
		body, ctype := multipartBody(t, parts)
		doPin(t, name, send(t, c, "POST", sim, ctype, body), want)
	}
	row("oversized upload", map[string][]byte{"spec": []byte(spec), "image": nrrdBody(t, 24)},
		pin{status: 413, code: wire.CodeTooLarge, ctype: "application/json",
			sha: sha(envelope(wire.CodeTooLarge, "request body exceeds the 4096 byte cap"))})
	row("empty image part", map[string][]byte{"spec": []byte(spec), "image": {}},
		pin{status: 400, code: wire.CodeBadRequest, ctype: "application/json",
			sha: sha(envelope(wire.CodeBadRequest, `empty "image" part: expected an NRRD label image`))})
	row("no spec part", map[string][]byte{"image": nrrdBody(t, 7)},
		pin{status: 400, code: wire.CodeBadRequest, ctype: "application/json",
			sha: sha(envelope(wire.CodeBadRequest, `missing "spec" part: POST /v1/simulate takes multipart/form-data with a JSON spec and an NRRD image`))})
	row("undecodable image", map[string][]byte{"spec": []byte(spec), "image": []byte("not an image")},
		pin{status: 400, code: wire.CodeBadRequest, ctype: "application/json",
			sha: sha(envelope(wire.CodeBadRequest, "decoding image: nrrd: reading magic: EOF"))})
	if v := srv.mSimJobs.Value("bad_request"); v != 4 {
		t.Errorf("simulate_jobs_total{bad_request} = %d, want 4", v)
	}
	if v := srv.mSimJobs.Total(); v != 4 {
		t.Errorf("simulate_jobs_total = %d over all outcomes, want 4", v)
	}
}

// TestSimulateSharedMeshTwoSolves: two simulate requests agreeing on
// (image, mesh variant) but differing in boundary conditions share ONE
// meshing run — via single-flight coalescing when they overlap, via
// the result cache otherwise — and still receive their own distinct
// fields.
func TestSimulateSharedMeshTwoSolves(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	srv.coalesceMax = 4
	client := ts.Client()
	image := nrrdBody(t, 16)

	// Slow the (single) session down so overlapping requests coalesce.
	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Seed:     1,
		Rates:    map[faultinject.Point]float64{faultinject.SlowSession: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.SlowSession: 1},
		Delay:    300 * time.Millisecond,
	}))
	defer restore()

	specFor := func(value float64) string {
		// No source: the solution of Laplace's equation with u = value on
		// the whole boundary is the constant field u ≡ value.
		return fmt.Sprintf(`{"format": "summary", "dirichlet": [{"value": %g}]}`, value)
	}
	var wg sync.WaitGroup
	summaries := make([]SimSummary, 2)
	errs := make([]error, 2)
	for i, value := range []float64{1, 2} {
		body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(specFor(value)), "image": image})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := send(t, client, "POST", ts.URL+"/v1/simulate", ctype, body)
			if a.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("simulate %d: %d: %s", i, a.StatusCode, a.body)
				return
			}
			errs[i] = json.Unmarshal(a.body, &summaries[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if runs := srv.mRunSeconds.Count(); runs != 1 {
		t.Errorf("meshing runs = %d, want 1 (the mesh must be shared)", runs)
	}
	if shared := srv.mCoalesced.Value() + srv.mCacheServed.Value(); shared < 1 {
		t.Error("neither coalescing nor the cache served the second mesh")
	}
	for i, want := range []float64{1, 2} {
		s := summaries[i]
		if s.FieldMin < want-1e-6 || s.FieldMax > want+1e-6 {
			t.Errorf("solve %d: field in [%g, %g], want the constant %g", i, s.FieldMin, s.FieldMax, want)
		}
	}
	if summaries[0].Cells != summaries[1].Cells || summaries[0].Vertices != summaries[1].Vertices {
		t.Errorf("the two solves ran on different meshes: %+v vs %+v", summaries[0], summaries[1])
	}
}

// TestSimulateBadBC: a malformed spec is refused before any meshing;
// boundary conditions that constrain no vertex of the mesh are the
// client's fault, found after the mesh stage, whose mesh stays cached.
func TestSimulateBadBC(t *testing.T) {
	r := newEndingRig(t)
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
	r := newEndingRig(t)
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
