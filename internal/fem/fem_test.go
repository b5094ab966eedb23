package fem

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
)

// unitTetraMesh is the reference single-element mesh.
func unitTetraMesh() *core.MeshSnapshot {
	return &core.MeshSnapshot{
		Verts: []geom.Vec3{
			{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1},
		},
		Cells: [][4]int32{{0, 1, 2, 3}},
	}
}

func TestP1GradientsPartitionOfUnity(t *testing.T) {
	p := [4]geom.Vec3{
		{X: 0.3, Y: 0.1, Z: 0.2}, {X: 1.1, Y: 0.2, Z: 0}, {X: 0.2, Y: 1.4, Z: 0.1}, {X: 0, Y: 0.3, Z: 1.2},
	}
	vol := geom.TetraVolume(p[0], p[1], p[2], p[3])
	if vol <= 0 {
		p[0], p[1] = p[1], p[0]
		vol = geom.TetraVolume(p[0], p[1], p[2], p[3])
	}
	g := p1Gradients(p, vol)
	// Basis gradients sum to zero.
	sum := g[0].Add(g[1]).Add(g[2]).Add(g[3])
	if sum.Norm() > 1e-12 {
		t.Fatalf("gradients do not sum to zero: %v", sum)
	}
	// grad_i . (p_j - p_i) reproduces the linear basis: N_i(p_j) = δ_ij.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v := g[i].Dot(p[j].Sub(p[i]))
			want := 0.0
			if i != j {
				want = -0.0
			}
			_ = want
			if i == j && math.Abs(v) > 1e-12 {
				t.Fatalf("grad_%d at own vertex = %v", i, v)
			}
		}
		// N_i is 1 at p_i and 0 at the others: check via affine form.
		for j := 0; j < 4; j++ {
			ni := 0.0
			if i == j {
				ni = 1.0
			}
			// N_i(x) = N_i(p_i) + grad.(x - p_i) = 1 + grad.(p_j - p_i)
			got := 1 + g[i].Dot(p[j].Sub(p[i]))
			if math.Abs(got-ni) > 1e-9 {
				t.Fatalf("N_%d(p_%d) = %v, want %v", i, j, got, ni)
			}
		}
	}
}

func TestSingleElementLaplace(t *testing.T) {
	// u = x is harmonic; constrain all four vertices to x and solve —
	// the system is fully constrained (error expected) unless one
	// vertex is free. Free vertex 0: solution must reproduce u(0)=0.
	m := unitTetraMesh()
	p := &Problem{
		Mesh: m,
		Dirichlet: map[int32]float64{
			1: 1, 2: 0, 3: 0,
		},
	}
	sys, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.Solve(1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Exact P1 solution on one element with u = x on 3 vertices: the
	// free vertex value minimizes energy; for the unit tetra the
	// minimizer of |∇u|² with u(1,0,0)=1, others 0 gives u0 = 1/3.
	if math.Abs(sol.U[0]-1.0/3.0) > 1e-9 {
		t.Fatalf("u0 = %v, want 1/3", sol.U[0])
	}
}

func TestFullyConstrainedRejected(t *testing.T) {
	m := unitTetraMesh()
	p := &Problem{Mesh: m, Dirichlet: map[int32]float64{0: 0, 1: 0, 2: 0, 3: 0}}
	if _, err := Assemble(p); err == nil {
		t.Fatal("fully constrained system accepted")
	}
}

func TestEmptyMeshRejected(t *testing.T) {
	if _, err := Assemble(&Problem{Mesh: &core.MeshSnapshot{}}); err == nil {
		t.Fatal("empty mesh accepted")
	}
}

// meshedSphere returns a PI2M sphere mesh's snapshot with its
// boundary vertex set.
func meshedSphere(t *testing.T, n int) (*core.MeshSnapshot, []bool) {
	t.Helper()
	im := img.SpherePhantom(n)
	res, err := core.Run(core.Config{Image: im, Workers: 2, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	boundary := make([]bool, len(snap.Verts))
	ext, _ := snap.ExteriorVertices()
	for _, v := range ext {
		boundary[v] = true
	}
	return snap, boundary
}

// TestHarmonicReproduction is the classic patch test: with boundary
// values from the harmonic function u = z, the P1 solution on ANY mesh
// reproduces u = z exactly (linear fields are in the FE space), so the
// interior error is solver tolerance only. This exercises assembly,
// constraint elimination and CG end-to-end on a real PI2M mesh.
func TestHarmonicReproduction(t *testing.T) {
	raw, boundary := meshedSphere(t, 32)
	dir := map[int32]float64{}
	for v, b := range boundary {
		if b {
			dir[int32(v)] = raw.Verts[v].Z
		}
	}
	sys, err := Assemble(&Problem{Mesh: raw, Dirichlet: dir})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.Solve(1e-10, 20*sys.N)
	if err != nil {
		t.Fatalf("solve: %v (iters=%d res=%g)", err, sol0iters(sol), sol0res(sol))
	}
	worst := 0.0
	for v := range raw.Verts {
		if e := math.Abs(sol.U[v] - raw.Verts[v].Z); e > worst {
			worst = e
		}
	}
	if worst > 1e-6 {
		t.Fatalf("linear patch test failed: max error %g", worst)
	}
	t.Logf("n=%d unknowns, %d CG iterations, max error %.2g", sys.N, sol.Iterations, worst)
}

func sol0iters(s *Solution) int {
	if s == nil {
		return -1
	}
	return s.Iterations
}

func sol0res(s *Solution) float64 {
	if s == nil {
		return math.NaN()
	}
	return s.Residual
}

// TestSourceProblem solves -Δu = 1 with u = 0 on the sphere boundary:
// the exact solution is (R² - r²)/6, maximal at the center. Checks the
// discrete maximum sits near the center with the right magnitude.
func TestSourceProblem(t *testing.T) {
	raw, boundary := meshedSphere(t, 48)
	dir := map[int32]float64{}
	for v, b := range boundary {
		if b {
			dir[int32(v)] = 0
		}
	}
	sys, err := Assemble(&Problem{
		Mesh:      raw,
		Dirichlet: dir,
		Source:    func(geom.Vec3) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.Solve(1e-9, 20*sys.N)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: u(r) = (R^2 - r^2)/6 with R the sphere radius (0.35*48)
	// around the center (24,24,24).
	R := 0.35 * 48.0
	center := geom.Vec3{X: 24, Y: 24, Z: 24}
	wantMax := R * R / 6
	var gotMax float64
	worstRel := 0.0
	for v, p := range raw.Verts {
		u := sol.U[v]
		if u > gotMax {
			gotMax = u
		}
		r := p.Dist(center)
		if r < R*0.9 { // skip the voxelized boundary band
			want := (R*R - r*r) / 6
			if want > wantMax/4 {
				rel := math.Abs(u-want) / wantMax
				if rel > worstRel {
					worstRel = rel
				}
			}
		}
	}
	if math.Abs(gotMax-wantMax)/wantMax > 0.15 {
		t.Errorf("max u = %.3f, analytic %.3f", gotMax, wantMax)
	}
	if worstRel > 0.15 {
		t.Errorf("interior relative error %.3f", worstRel)
	}
	t.Logf("max u %.3f vs analytic %.3f, %d CG iterations", gotMax, wantMax, sol.Iterations)
}

func TestCSRBasics(t *testing.T) {
	b := newCSRBuilder(3)
	b.add(0, 0, 2)
	b.add(0, 1, -1)
	b.add(0, 1, 0.5) // duplicate merges
	b.add(1, 1, 2)
	b.add(2, 2, 1)
	m := b.build()
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	m.MulVec(x, y)
	if y[0] != 2*1+(-0.5)*2 || y[1] != 4 || y[2] != 3 {
		t.Fatalf("MulVec = %v", y)
	}
	d := m.Diag()
	if d[0] != 2 || d[1] != 2 || d[2] != 1 {
		t.Fatalf("Diag = %v", d)
	}
}

func TestCGSolvesSPD(t *testing.T) {
	// Small SPD system: tridiagonal Laplacian.
	n := 50
	b := newCSRBuilder(n)
	for i := 0; i < n; i++ {
		b.add(i, i, 2)
		if i > 0 {
			b.add(i, i-1, -1)
		}
		if i < n-1 {
			b.add(i, i+1, -1)
		}
	}
	m := b.build()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, n)
	iters, res, err := m.cgJacobi(context.Background(), x, rhs, 1e-12, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-10 {
		t.Fatalf("residual %g after %d iters", res, iters)
	}
	// Verify A x = b.
	y := make([]float64, n)
	m.MulVec(x, y)
	for i := range y {
		if math.Abs(y[i]-rhs[i]) > 1e-8 {
			t.Fatalf("A x != b at %d", i)
		}
	}
}

func TestCGRejectsNonSPD(t *testing.T) {
	b := newCSRBuilder(2)
	b.add(0, 0, -1)
	b.add(1, 1, 1)
	m := b.build()
	x := make([]float64, 2)
	if _, _, err := m.cgJacobi(context.Background(), x, []float64{1, 1}, 1e-10, 10, nil); err == nil {
		t.Fatal("negative diagonal accepted")
	}
}

// TestParallelAssemblyMatchesSequential compares the parallel and
// sequential assemblies as operators (matrix-vector products on random
// vectors) and as solvers.
func TestParallelAssemblyMatchesSequential(t *testing.T) {
	raw, boundary := meshedSphere(t, 32)
	dir := map[int32]float64{}
	for v, b := range boundary {
		if b {
			dir[int32(v)] = raw.Verts[v].Z
		}
	}
	src := func(p geom.Vec3) float64 { return p.X - p.Y }
	prob := &Problem{Mesh: raw, Dirichlet: dir, Source: src}

	seq, err := Assemble(prob)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AssembleParallel(prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.N != par.N || seq.K.NNZ() != par.K.NNZ() {
		t.Fatalf("shape mismatch: N %d/%d NNZ %d/%d", seq.N, par.N, seq.K.NNZ(), par.K.NNZ())
	}
	for i := range seq.B {
		if math.Abs(seq.B[i]-par.B[i]) > 1e-9*(1+math.Abs(seq.B[i])) {
			t.Fatalf("load vector differs at %d: %v vs %v", i, seq.B[i], par.B[i])
		}
	}
	// Operator comparison on a few vectors.
	x := make([]float64, seq.N)
	y1 := make([]float64, seq.N)
	y2 := make([]float64, seq.N)
	for trial := 0; trial < 5; trial++ {
		for i := range x {
			x[i] = math.Sin(float64(i*(trial+1)) * 0.7)
		}
		seq.K.MulVec(x, y1)
		par.K.MulVec(x, y2)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-9*(1+math.Abs(y1[i])) {
				t.Fatalf("operator differs at row %d: %v vs %v", i, y1[i], y2[i])
			}
		}
	}
}

func TestParallelAssemblySmallMeshFallsBack(t *testing.T) {
	m := unitTetraMesh()
	p := &Problem{Mesh: m, Dirichlet: map[int32]float64{1: 1, 2: 0, 3: 0}}
	sys, err := AssembleParallel(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.Solve(1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.U[0]-1.0/3.0) > 1e-9 {
		t.Fatalf("u0 = %v", sol.U[0])
	}
}

// TestHConvergence ties the meshing and solving halves together: for
// the Poisson ball problem (-Δu = 1, u = 0 on ∂O, exact solution
// (R²-r²)/6), refining δ must reduce the discrete solution's interior
// error — the reason FE practitioners want the paper's δ control.
func TestHConvergence(t *testing.T) {
	im := img.SpherePhantom(64)
	R := 0.35 * 64.0
	center := geom.Vec3{X: 32, Y: 32, Z: 32}

	errAt := func(delta float64) float64 {
		res, err := core.Run(core.Config{
			Image: im, Workers: 2, Delta: delta, LivelockTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		raw := res.Snapshot()
		ext, _ := raw.ExteriorVertices()
		dir := map[int32]float64{}
		for _, v := range ext {
			dir[v] = 0
		}
		sys, err := Assemble(&Problem{
			Mesh: raw, Dirichlet: dir,
			Source: func(geom.Vec3) float64 { return 1 },
		})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := sys.Solve(1e-9, 50*sys.N)
		if err != nil {
			t.Fatal(err)
		}
		// RMS error over deep-interior vertices (the boundary band is
		// dominated by voxelization, not discretization).
		var sum float64
		n := 0
		for v, p := range raw.Verts {
			r := p.Dist(center)
			if r < 0.7*R {
				want := (R*R - r*r) / 6
				d := sol.U[v] - want
				sum += d * d
				n++
			}
		}
		if n == 0 {
			t.Fatal("no interior vertices")
		}
		return math.Sqrt(sum / float64(n))
	}

	coarse := errAt(8)
	fine := errAt(3)
	t.Logf("RMS interior error: δ=8 -> %.3f, δ=3 -> %.3f", coarse, fine)
	if fine >= coarse {
		t.Errorf("refinement did not reduce FE error: %.4f -> %.4f", coarse, fine)
	}
}
