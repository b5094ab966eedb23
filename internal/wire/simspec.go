package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
)

// SimSpec is the versioned request spec of /v1/simulate: the meshing
// knobs (a full MeshSpec — the mesh stage shares /v1/mesh's admission,
// coalescing, and cache path, keyed by the same variant), the material
// model, the boundary conditions, an optional source term, and the
// solver budget. The image travels beside it as the multipart "image"
// part.
type SimSpec struct {
	// Version is the spec revision; 0 (absent) and SpecVersion are
	// accepted.
	Version int `json:"version,omitempty"`
	// Mesh tunes the meshing stage; its Format and Timeout fields keep
	// their /v1/mesh meaning (Timeout bounds the mesh stage only — the
	// solve has its own budget under Solve.Timeout).
	Mesh MeshSpec `json:"mesh,omitempty"`
	// Format selects the response: "vtk" (default) returns the mesh
	// with the solved field as POINT_DATA plus an X-Simulate-Summary
	// header; "summary" returns the JSON summary alone.
	Format string `json:"format,omitempty"`
	// Conductivity is the per-tissue material model (nil = unit
	// conductivity everywhere).
	Conductivity *ConductivitySpec `json:"conductivity,omitempty"`
	// Dirichlet selects constrained exterior-surface vertices; at
	// least one clause is required, and together they must constrain at
	// least one vertex of the actual mesh (else 400 bad_bc).
	Dirichlet []BCSpec `json:"dirichlet"`
	// Source is the optional volumetric source term f (nil = 0).
	Source *SourceSpec `json:"source,omitempty"`
	// Solve bounds the solver.
	Solve SolveSpec `json:"solve,omitempty"`
}

// ConductivitySpec maps tissue labels to conductivities; labels
// without an entry get Default (0 = 1).
type ConductivitySpec struct {
	PerLabel map[string]float64 `json:"per_label,omitempty"`
	Default  float64            `json:"default,omitempty"`
}

// BCSpec is one Dirichlet clause: it constrains every exterior-surface
// vertex matching ALL of its predicates (absent predicates match
// everything, so an empty clause constrains the whole exterior
// boundary) to Value. Later clauses override earlier ones where they
// overlap.
type BCSpec struct {
	// Label matches vertices bounding a cell of this tissue label.
	Label *int `json:"label,omitempty"`
	// Plane matches vertices within Tol of the mesh's axis-aligned
	// bounding-box face.
	Plane *PlaneSpec `json:"plane,omitempty"`
	// Sphere matches vertices inside the ball.
	Sphere *SphereSpec `json:"sphere,omitempty"`
	// Value is the prescribed field value u = g.
	Value float64 `json:"value"`
}

// PlaneSpec selects an axis-aligned boundary slab: the vertices within
// Tol (default 0.5 world units) of the exterior surface's min or max
// coordinate along Axis.
type PlaneSpec struct {
	Axis string  `json:"axis"`          // "x", "y", or "z"
	Side string  `json:"side"`          // "min" or "max"
	Tol  float64 `json:"tol,omitempty"` // slab thickness (0 = 0.5)
}

// SphereSpec selects the boundary vertices inside a ball.
type SphereSpec struct {
	Center [3]float64 `json:"center"`
	R      float64    `json:"r"`
}

// SourceSpec is the volumetric source term f of -∇·(k∇u) = f:
// a uniform background plus an optional ball of different strength.
type SourceSpec struct {
	Uniform float64     `json:"uniform,omitempty"`
	Ball    *SourceBall `json:"ball,omitempty"`
}

// SourceBall overrides the source strength inside a ball.
type SourceBall struct {
	Center [3]float64 `json:"center"`
	R      float64    `json:"r"`
	Value  float64    `json:"value"`
}

// SolveSpec bounds the CG solve.
type SolveSpec struct {
	// Tol is the relative residual target (0 = 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter caps CG iterations (0 = 10 × unknowns).
	MaxIter int `json:"max_iter,omitempty"`
	// Timeout bounds the solve stage's wall time; it is capped by the
	// server's fixed 30 s solve ceiling (0 = the ceiling).
	Timeout Duration `json:"timeout,omitempty"`
}

// ParseSimSpec decodes a JSON SimSpec strictly (unknown fields are
// errors) and validates every knob a 400 can catch before the mesh
// exists; mesh-dependent checks (does any vertex match the BCs?)
// happen after meshing and surface as bad_bc.
func ParseSimSpec(data []byte) (SimSpec, error) {
	var sp SimSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("decoding simulation spec: %v", err)
	}
	if err := sp.validate(); err != nil {
		return sp, err
	}
	return sp, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (sp *SimSpec) validate() error {
	if err := checkVersion(sp.Version); err != nil {
		return err
	}
	if err := sp.Mesh.Validate(); err != nil {
		return fmt.Errorf("mesh: %v", err)
	}
	if sp.Format == "" {
		sp.Format = "vtk"
	}
	if sp.Format != "vtk" && sp.Format != "summary" {
		return fmt.Errorf("unknown format %q (want vtk or summary)", sp.Format)
	}
	if c := sp.Conductivity; c != nil {
		for k, v := range c.PerLabel {
			l, err := strconv.Atoi(k)
			if err != nil || l < 0 || l > 255 {
				return fmt.Errorf("bad conductivity label %q (want a decimal label 0-255)", k)
			}
			if v <= 0 || !finite(v) {
				return fmt.Errorf("bad conductivity for label %s: %g (want a positive finite number)", k, v)
			}
		}
		if c.Default < 0 || !finite(c.Default) {
			return fmt.Errorf("bad conductivity default %g", c.Default)
		}
	}
	if len(sp.Dirichlet) == 0 {
		return fmt.Errorf("no dirichlet clauses: a well-posed problem needs at least one boundary condition")
	}
	for i, bc := range sp.Dirichlet {
		if !finite(bc.Value) {
			return fmt.Errorf("dirichlet %d: non-finite value", i)
		}
		if bc.Label != nil && (*bc.Label < 0 || *bc.Label > 255) {
			return fmt.Errorf("dirichlet %d: bad label %d", i, *bc.Label)
		}
		if p := bc.Plane; p != nil {
			if p.Axis != "x" && p.Axis != "y" && p.Axis != "z" {
				return fmt.Errorf("dirichlet %d: bad plane axis %q (want x, y, or z)", i, p.Axis)
			}
			if p.Side != "min" && p.Side != "max" {
				return fmt.Errorf("dirichlet %d: bad plane side %q (want min or max)", i, p.Side)
			}
			if p.Tol < 0 || !finite(p.Tol) {
				return fmt.Errorf("dirichlet %d: bad plane tol %g", i, p.Tol)
			}
		}
		if sph := bc.Sphere; sph != nil {
			if sph.R <= 0 || !finite(sph.R) {
				return fmt.Errorf("dirichlet %d: bad sphere r=%g", i, sph.R)
			}
			for _, c := range sph.Center {
				if !finite(c) {
					return fmt.Errorf("dirichlet %d: non-finite sphere center", i)
				}
			}
		}
	}
	if src := sp.Source; src != nil {
		if !finite(src.Uniform) {
			return fmt.Errorf("bad source uniform %g", src.Uniform)
		}
		if b := src.Ball; b != nil {
			if b.R <= 0 || !finite(b.R) || !finite(b.Value) {
				return fmt.Errorf("bad source ball (r=%g, value=%g)", b.R, b.Value)
			}
			for _, c := range b.Center {
				if !finite(c) {
					return fmt.Errorf("non-finite source ball center")
				}
			}
		}
	}
	if sp.Solve.Tol < 0 || !finite(sp.Solve.Tol) {
		return fmt.Errorf("bad solve tol %g", sp.Solve.Tol)
	}
	if sp.Solve.MaxIter < 0 {
		return fmt.Errorf("bad solve max_iter %d", sp.Solve.MaxIter)
	}
	if sp.Solve.Timeout < 0 {
		return fmt.Errorf("bad solve timeout %v", time.Duration(sp.Solve.Timeout))
	}
	return nil
}
