package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/meshio"
	"repro/internal/wire"
)

// SimSummary is the JSON summary a simulation answers with — in the
// body for format=summary, in the X-Simulate-Summary header beside the
// VTK field otherwise.
type SimSummary struct {
	ImageKey            string      `json:"image_key"`
	Variant             string      `json:"variant,omitempty"`
	CacheHit            bool        `json:"cache_hit,omitempty"`
	Coalesced           bool        `json:"coalesced,omitempty"`
	Vertices            int         `json:"vertices"`
	Cells               int         `json:"cells"`
	ConstrainedVertices int         `json:"constrained_vertices"`
	Iterations          int         `json:"iterations"`
	Residual            float64     `json:"residual"`
	FieldMin            float64     `json:"field_min"`
	FieldMax            float64     `json:"field_max"`
	SolveSeconds        float64     `json:"solve_seconds"`
	Quality             MeshQuality `json:"quality"`
}

// MeshQuality digests the snapshot's element quality: the worst
// radius-edge ratio (rule R4 bounds it at 2 on non-degraded runs) and
// the smallest dihedral angle.
type MeshQuality struct {
	MaxRadiusEdge  float64 `json:"max_radius_edge"`
	MinDihedralDeg float64 `json:"min_dihedral_deg"`
}

// dirichletFromSpec resolves the spec's clauses against the snapshot's
// exterior surface. Later clauses override earlier ones; the result
// must constrain at least one vertex.
func dirichletFromSpec(snap *core.MeshSnapshot, bcs []wire.BCSpec) (map[int32]float64, error) {
	verts, labels := snap.ExteriorVertices()
	if len(verts) == 0 {
		return nil, &requestError{http.StatusBadRequest, wire.CodeBadBC, "mesh has no exterior surface"}
	}
	// Bounding box of the exterior surface, for plane predicates.
	lo := snap.Verts[verts[0]]
	hi := lo
	for _, v := range verts[1:] {
		p := snap.Verts[v]
		lo.X, lo.Y, lo.Z = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z)
		hi.X, hi.Y, hi.Z = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z)
	}
	axis := func(p geom.Vec3, name string) float64 {
		switch name {
		case "x":
			return p.X
		case "y":
			return p.Y
		default:
			return p.Z
		}
	}
	out := make(map[int32]float64)
	for _, bc := range bcs {
		for _, v := range verts {
			p := snap.Verts[v]
			if bc.Label != nil {
				if !slices.Contains(labels[v], img.Label(*bc.Label)) {
					continue
				}
			}
			if pl := bc.Plane; pl != nil {
				tol := pl.Tol
				if tol == 0 {
					tol = 0.5
				}
				c := axis(p, pl.Axis)
				if pl.Side == "min" {
					if c > axis(lo, pl.Axis)+tol {
						continue
					}
				} else if c < axis(hi, pl.Axis)-tol {
					continue
				}
			}
			if sph := bc.Sphere; sph != nil {
				center := geom.Vec3{X: sph.Center[0], Y: sph.Center[1], Z: sph.Center[2]}
				if p.Dist(center) > sph.R {
					continue
				}
			}
			out[v] = bc.Value
		}
	}
	if len(out) == 0 {
		return nil, &requestError{http.StatusBadRequest, wire.CodeBadBC,
			"dirichlet clauses constrain no vertex of the meshed surface"}
	}
	return out, nil
}

// sourceFunc compiles the spec's source term; nil means f = 0.
func sourceFunc(src *wire.SourceSpec) func(geom.Vec3) float64 {
	if src == nil || (src.Uniform == 0 && src.Ball == nil) {
		return nil
	}
	uniform := src.Uniform
	ball := src.Ball
	return func(p geom.Vec3) float64 {
		if ball != nil {
			center := geom.Vec3{X: ball.Center[0], Y: ball.Center[1], Z: ball.Center[2]}
			if p.Dist(center) <= ball.R {
				return ball.Value
			}
		}
		return uniform
	}
}

// runSolve assembles and solves the spec's problem on the snapshot on
// the request's own goroutine: the solve runs under a deadline (budget)
// that CG observes cooperatively every few iterations. Everything runs
// off-lease — the mesh session was released before this function is
// called. A failure comes back as the typed ending classify reads:
// ErrCanceled, ErrDeadline, or a 400/500 requestError.
func (s *Server) runSolve(ctx context.Context, snap *core.MeshSnapshot, spec *wire.SimSpec) (*fem.Solution, map[int32]float64, error) {
	dirichlet, err := dirichletFromSpec(snap, spec.Dirichlet)
	if err != nil {
		return nil, nil, err
	}
	var byLabel map[int]float64
	def := 0.0
	if c := spec.Conductivity; c != nil {
		def = c.Default
		byLabel = make(map[int]float64, len(c.PerLabel))
		for k, v := range c.PerLabel {
			l, _ := strconv.Atoi(k)
			byLabel[l] = v
		}
	}
	conductivity, err := fem.ConductivityFromLabels(snap, byLabel, def)
	if err != nil {
		return nil, nil, &requestError{http.StatusBadRequest, wire.CodeBadRequest, err.Error()}
	}

	// The spec's ask, capped by solveTimeout: a hostile spec must not
	// reserve unbounded solver time.
	budget := time.Duration(spec.Solve.Timeout)
	if budget <= 0 || budget > solveTimeout {
		budget = solveTimeout
	}
	solveCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	var sol *fem.Solution
	sys, solveErr := fem.Assemble(&fem.Problem{
		Mesh:         snap,
		Conductivity: conductivity,
		Source:       sourceFunc(spec.Source),
		Dirichlet:    dirichlet,
	})
	if solveErr == nil {
		sol, solveErr = sys.SolveCtx(solveCtx, fem.SolveOptions{
			Tol:     spec.Solve.Tol,
			MaxIter: spec.Solve.MaxIter,
		})
	}
	switch {
	case errors.Is(solveErr, context.Canceled):
		return nil, nil, &stageError{ErrCanceled, "solve canceled: " + solveErr.Error()}
	case errors.Is(solveErr, context.DeadlineExceeded):
		return nil, nil, &stageError{ErrDeadline, fmt.Sprintf("solve exceeded its %v budget: %v", budget, solveErr)}
	case solveErr != nil:
		return nil, nil, &requestError{http.StatusInternalServerError, wire.CodeSolveFailed, "solve failed: " + solveErr.Error()}
	}
	// A solve that converged right at the deadline still answers: the
	// field is complete and the caller is still listening.
	return sol, dirichlet, nil
}

// handleSimulate is POST /v1/simulate: a multipart request ("spec"
// JSON + "image" NRRD) is meshed through the exact pipeline /v1/mesh
// uses — same admission, coalescing, persistent cache, and deadline;
// a cached or coalesced mesh skips straight to the solve — then the
// FEM problem is assembled and solved off-lease under its own budget,
// and the field returns as VTK POINT_DATA with a JSON summary.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	specJSON, body, err := s.readUpload(w, r)
	var spec wire.SimSpec
	switch {
	case err != nil:
	case specJSON == nil:
		err = badRequest("missing %q part: POST /v1/simulate takes multipart/form-data with a JSON spec and an NRRD image", "spec")
	case len(body) == 0:
		err = badRequest("empty %q part: expected an NRRD label image", "image")
	default:
		if spec, err = wire.ParseSimSpec(specJSON); err != nil {
			err = badRequest("bad simulation spec: %v", err)
		}
	}
	if err != nil {
		s.endSimulation(w, false, err)
		return
	}

	// Mesh stage: the walk /v1/mesh takes, including the per-stage
	// timeout. A concurrent simulate (or mesh) request for the same
	// (image, variant) shares the run; a cached mesh skips it entirely.
	key, variant := s.uploads.Of(body), spec.Mesh.Variant()
	sr, err := s.walk(r.Context(), &job{key: key, body: body, variant: variant,
		tune: tune(&spec.Mesh), timeout: time.Duration(spec.Mesh.Timeout)})
	if err != nil {
		s.endSimulation(w, false, err)
		return
	}

	// Solve stage, off-lease under its own budget.
	solveStart := time.Now()
	sol, dirichlet, err := s.runSolve(r.Context(), sr.Snapshot, &spec)
	solveSecs := time.Since(solveStart).Seconds()
	if err != nil {
		s.endSimulation(w, true, err)
		return
	}
	s.mSolveSeconds.Observe(solveSecs)
	s.mSolveIters.Observe(float64(sol.Iterations))

	// The quality of the mesh the field was solved on, measured off-lease.
	q := sr.Snapshot.Quality()
	summary := SimSummary{
		ImageKey:            key,
		Variant:             variant,
		CacheHit:            sr.Summary.CacheHit,
		Coalesced:           sr.Summary.Coalesced,
		Vertices:            len(sr.Snapshot.Verts),
		Cells:               len(sr.Snapshot.Cells),
		ConstrainedVertices: len(dirichlet),
		Iterations:          sol.Iterations,
		Residual:            sol.Residual,
		SolveSeconds:        solveSecs,
		Quality:             MeshQuality{MaxRadiusEdge: q.MaxRadiusEdge, MinDihedralDeg: q.MinDihedral},
	}
	summary.FieldMin, summary.FieldMax = math.Inf(1), math.Inf(-1)
	for _, u := range sol.U {
		summary.FieldMin = math.Min(summary.FieldMin, u)
		summary.FieldMax = math.Max(summary.FieldMax, u)
	}
	s.replySimulation(w, spec.Format, sr.Snapshot, sol.U, &summary)
}

// endSimulation books a /v1/simulate job's outcome once, from whether it
// was meshed and classify's code, and answers a failure through
// writeMeshError. Unmeshed, it is bad_request or mesh_failed; meshed, the
// code — a 400 counts as bad_bc, an unencodable field as solve_failed.
func (s *Server) endSimulation(w http.ResponseWriter, meshed bool, err error) {
	_, code := classify(err)
	outcome := code
	switch {
	case err == nil:
		outcome = "ok"
	case !meshed && (code == wire.CodeBadRequest || code == wire.CodeTooLarge):
		outcome = wire.CodeBadRequest
	case !meshed:
		outcome = "mesh_failed"
	case code == wire.CodeBadRequest:
		outcome = wire.CodeBadBC
	case code == wire.CodeInternal:
		outcome = wire.CodeSolveFailed
	}
	s.mSimJobs.With(outcome).Inc()
	if err != nil {
		s.writeMeshError(w, err)
	}
}

// replySimulation encodes and sends a solved simulation: the summary
// alone as indented JSON for format "summary", otherwise the field u on
// its mesh as VTK with the summary compacted into X-Simulate-Summary.
// It settles the job's outcome before the first byte leaves, so the
// count is there by the time the client has its answer.
func (s *Server) replySimulation(w http.ResponseWriter, format string, snap *core.MeshSnapshot, u []float64, summary *SimSummary) {
	contentType, encode := "text/vtk", func(b []byte) ([]byte, error) {
		return meshio.AppendVTKSnapshotField(b, snap, "u", u)
	}
	if format == "summary" {
		contentType, encode = "application/json", func(b []byte) ([]byte, error) {
			doc, err := json.MarshalIndent(summary, "", "  ")
			return append(append(b, doc...), '\n'), err
		}
	}
	body, err := encodeBody(encode)
	s.endSimulation(w, true, err)
	if err != nil {
		return
	}
	if format != "summary" {
		compact, _ := json.Marshal(summary)
		w.Header().Set("X-Simulate-Summary", string(compact))
	}
	sendBody(w, contentType, *body)
	releaseBody(body)
}
