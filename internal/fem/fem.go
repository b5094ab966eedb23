// Package fem provides the finite-element substrate the paper's
// meshes exist for: Image-to-Mesh conversion feeds patient-specific FE
// simulation (Section 1), and "the robustness and accuracy of the
// solver rely on the quality of the mesh [3-5]". The package
// implements linear (P1) tetrahedral finite elements for the Poisson
// equation -Δu = f with Dirichlet boundary conditions, assembled into
// a sparse system and solved by (Jacobi-preconditioned) conjugate
// gradients — enough to run a heat-conduction or potential problem on
// a PI2M output mesh and to measure how element quality affects solver
// behavior.
package fem

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
)

// Problem is a Poisson problem on a tetrahedral mesh: -∇·(k∇u) = f in
// the volume, u = g on the constrained vertices.
type Problem struct {
	Mesh *core.MeshSnapshot

	// Conductivity per cell (nil = 1 everywhere). Multi-tissue
	// simulations assign per-label conductivities.
	Conductivity []float64

	// Source is f evaluated at vertices (nil = 0).
	Source func(geom.Vec3) float64

	// Dirichlet marks constrained vertices and their values.
	Dirichlet map[int32]float64
}

// System is an assembled linear system K u = b with Dirichlet
// constraints eliminated symmetrically.
type System struct {
	N   int // unknowns (free vertices)
	K   *CSR
	B   []float64
	ids []int32 // free index -> vertex id
	u0  []float64
}

// Assemble builds the stiffness matrix and load vector.
func Assemble(p *Problem) (*System, error) {
	m := p.Mesh
	if len(m.Cells) == 0 {
		return nil, fmt.Errorf("fem: empty mesh")
	}
	nv := len(m.Verts)

	inv := make([]int32, nv)
	var ids []int32
	for v := 0; v < nv; v++ {
		if _, fixed := p.Dirichlet[int32(v)]; fixed {
			inv[v] = -1
		} else {
			inv[v] = int32(len(ids))
			ids = append(ids, int32(v))
		}
	}
	n := len(ids)
	if n == 0 {
		return nil, fmt.Errorf("fem: every vertex is constrained")
	}

	// Element-by-element assembly into a triplet builder.
	b := make([]float64, n)
	builder := newCSRBuilder(n)

	for ci, cell := range m.Cells {
		var pos [4]geom.Vec3
		for i, v := range cell {
			pos[i] = m.Verts[v]
		}
		vol := geom.TetraVolume(pos[0], pos[1], pos[2], pos[3])
		if vol <= 0 {
			return nil, fmt.Errorf("fem: cell %d has non-positive volume %g", ci, vol)
		}
		k := 1.0
		if p.Conductivity != nil {
			k = p.Conductivity[ci]
		}

		grads := p1Gradients(pos, vol)
		// Local stiffness: K_ij = k * vol * grad_i . grad_j.
		for i := 0; i < 4; i++ {
			vi := cell[i]
			fi := inv[vi]
			// Load: f integrated with one-point quadrature, lumped.
			if fi >= 0 && p.Source != nil {
				centroid := pos[0].Add(pos[1]).Add(pos[2]).Add(pos[3]).Scale(0.25)
				b[fi] += p.Source(centroid) * vol / 4
			}
			for j := 0; j < 4; j++ {
				vj := cell[j]
				kij := k * vol * grads[i].Dot(grads[j])
				switch {
				case fi >= 0 && inv[vj] >= 0:
					builder.add(int(fi), int(inv[vj]), kij)
				case fi >= 0:
					// Constrained column: move to the RHS.
					b[fi] -= kij * p.Dirichlet[vj]
				}
			}
		}
	}

	u0 := make([]float64, nv)
	for v, g := range p.Dirichlet {
		u0[v] = g
	}
	return &System{N: n, K: builder.build(), B: b, ids: ids, u0: u0}, nil
}

// p1Gradients returns the constant gradients of the four linear basis
// functions on the tetrahedron.
func p1Gradients(p [4]geom.Vec3, vol float64) [4]geom.Vec3 {
	// grad_i = (opposite face normal, inward) / (3 * vol) — computed
	// from the standard formula grad_i = N_i / (6 vol) with N_i the
	// area vector of the face opposite i pointing toward vertex i.
	var g [4]geom.Vec3
	idx := [4][3]int{{1, 2, 3}, {0, 3, 2}, {0, 1, 3}, {0, 2, 1}}
	for i := 0; i < 4; i++ {
		a, b, c := p[idx[i][0]], p[idx[i][1]], p[idx[i][2]]
		n := b.Sub(a).Cross(c.Sub(a)) // area vector, |n| = 2*area
		// Orient toward vertex i.
		if n.Dot(p[i].Sub(a)) < 0 {
			n = n.Scale(-1)
		}
		g[i] = n.Scale(1 / (6 * vol))
	}
	return g
}

// Solution holds the solved field and solver diagnostics.
type Solution struct {
	U          []float64 // per original vertex (Dirichlet values included)
	Iterations int
	Residual   float64
}

// Solve runs preconditioned CG to the given relative tolerance.
func (s *System) Solve(tol float64, maxIter int) (*Solution, error) {
	return s.SolveCtx(context.Background(), SolveOptions{Tol: tol, MaxIter: maxIter})
}

// SolveOptions parameterizes SolveCtx.
type SolveOptions struct {
	// Tol is the relative residual target (default 1e-8).
	Tol float64
	// MaxIter caps CG iterations (default 10 × unknowns).
	MaxIter int
	// Progress, when non-nil, is called periodically from the solving
	// goroutine with the iteration count and current relative residual
	// — the hook a serving layer's supervision uses as a liveness
	// signal. It must be fast; it runs on the solve's critical path.
	Progress func(iter int, relResidual float64)
}

// SolveCtx runs preconditioned CG under a context: cancellation (or
// deadline expiry) is observed every few iterations and surfaces as an
// error wrapping ctx.Err(), so a server can bound a hostile or
// runaway solve without abandoning the goroutine. A canceled solve
// returns no Solution — the partial iterate is not a usable field.
func (s *System) SolveCtx(ctx context.Context, opt SolveOptions) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// An already-dead context never starts iterating: CG only observes
	// ctx every few iterations, and a small system can converge before
	// the first check — a canceled caller must not receive a field.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fem: solve not started: %w", err)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * s.N
	}
	x := make([]float64, s.N)
	iters, res, err := s.K.cgJacobi(ctx, x, s.B, opt.Tol, opt.MaxIter, opt.Progress)
	if err != nil {
		return nil, err
	}
	u := append([]float64(nil), s.u0...)
	for fi, v := range s.ids {
		u[v] = x[fi]
	}
	return &Solution{U: u, Iterations: iters, Residual: res}, nil
}
