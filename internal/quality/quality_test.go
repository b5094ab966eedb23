package quality_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
)

func v3(x, y, z float64) geom.Vec3 { return geom.Vec3{X: x, Y: y, Z: z} }

func TestPointTriangleDist(t *testing.T) {
	a := v3(0, 0, 0)
	b := v3(1, 0, 0)
	c := v3(0, 1, 0)
	cases := []struct {
		p    geom.Vec3
		want float64
	}{
		{v3(0.25, 0.25, 1), 1},        // above interior
		{v3(0.25, 0.25, 0), 0},        // on the triangle
		{v3(-1, 0, 0), 1},             // beyond vertex a
		{v3(0.5, -2, 0), 2},           // beyond edge ab
		{v3(2, 0, 0), 1},              // beyond vertex b
		{v3(1, 1, 0), math.Sqrt2 / 2}, // beyond hypotenuse
	}
	for _, tc := range cases {
		got := math.Sqrt(quality.PointTriangleDist2ForTest(tc.p, a, b, c))
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("dist(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPointTriangleDistProperty(t *testing.T) {
	// The computed distance must match a dense sampling lower bound.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := v3(rng.Float64(), rng.Float64(), rng.Float64())
		b := v3(rng.Float64(), rng.Float64(), rng.Float64())
		c := v3(rng.Float64(), rng.Float64(), rng.Float64())
		p := v3(rng.Float64()*2-0.5, rng.Float64()*2-0.5, rng.Float64()*2-0.5)
		got := math.Sqrt(quality.PointTriangleDist2ForTest(p, a, b, c))
		// Dense barycentric sampling.
		best := math.Inf(1)
		for i := 0; i <= 40; i++ {
			for j := 0; j <= 40-i; j++ {
				u := float64(i) / 40
				v := float64(j) / 40
				q := a.Scale(1 - u - v).Add(b.Scale(u)).Add(c.Scale(v))
				if d := q.Dist(p); d < best {
					best = d
				}
			}
		}
		if got > best+1e-9 {
			t.Fatalf("distance %v exceeds sampled bound %v", got, best)
		}
		if got < best-0.1 {
			t.Fatalf("distance %v far below sampled bound %v", got, best)
		}
	}
}

func meshSphere(t *testing.T, n int) (*core.Result, *img.Image) {
	t.Helper()
	im := img.SpherePhantom(n)
	res, err := core.Run(core.Config{Image: im, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res, im
}

func TestEvaluateSphere(t *testing.T) {
	res, _ := meshSphere(t, 32)
	s := res.Snapshot().Quality()
	if s.NumTets != res.Elements() {
		t.Errorf("NumTets = %d, want %d", s.NumTets, res.Elements())
	}
	if s.MaxRadiusEdge > 2.5 || s.MaxRadiusEdge <= 0 {
		t.Errorf("MaxRadiusEdge = %v", s.MaxRadiusEdge)
	}
	if s.MinDihedral <= 0 || s.MaxDihedral >= 180 || s.MinDihedral > s.MaxDihedral {
		t.Errorf("dihedral range (%v, %v)", s.MinDihedral, s.MaxDihedral)
	}
	if s.NumBoundaryTriangles == 0 {
		t.Error("no boundary triangles")
	}
	if s.MinBoundaryPlanarAngle <= 0 || s.MinBoundaryPlanarAngle > 60 {
		t.Errorf("MinBoundaryPlanarAngle = %v", s.MinBoundaryPlanarAngle)
	}
}

func TestBoundaryTrianglesNearSurface(t *testing.T) {
	n := 32
	res, _ := meshSphere(t, n)
	tris := res.Snapshot().BoundaryTriangles()
	c := v3(float64(n)/2, float64(n)/2, float64(n)/2)
	r := 0.35 * float64(n)
	for _, tri := range tris {
		for _, p := range []geom.Vec3{tri.A, tri.B, tri.C} {
			if math.Abs(p.Dist(c)-r) > 3 {
				t.Fatalf("boundary vertex %v at radius %v, sphere radius %v", p, p.Dist(c), r)
			}
		}
	}
}

func TestHausdorffSphere(t *testing.T) {
	res, im := meshSphere(t, 32)
	tr := edt.Compute(im, 2)
	tris := res.Snapshot().BoundaryTriangles()
	m2s, s2m := quality.Hausdorff(tris, im, tr)
	// Theorem 1 at voxel resolution: a few voxels at this δ (=2).
	if m2s > 4 || s2m > 4 {
		t.Errorf("Hausdorff (%v, %v) too large for a δ=2 sphere", m2s, s2m)
	}
	if m2s <= 0 || s2m <= 0 {
		t.Errorf("Hausdorff (%v, %v) suspiciously zero", m2s, s2m)
	}
	if sym := quality.SymmetricHausdorff(tris, im, tr); sym != math.Max(m2s, s2m) {
		t.Errorf("SymmetricHausdorff mismatch")
	}
}

func TestHausdorffEmptyTriangles(t *testing.T) {
	im := img.SpherePhantom(16)
	tr := edt.Compute(im, 1)
	m2s, s2m := quality.Hausdorff(nil, im, tr)
	if !math.IsInf(m2s, 1) || !math.IsInf(s2m, 1) {
		t.Error("empty triangle set should give infinite distances")
	}
}

func TestMultiTissueInterfacesAreBoundary(t *testing.T) {
	im := img.AbdominalPhantom(32, 32, 24)
	res, err := core.Run(core.Config{Image: im, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	tris := snap.BoundaryTriangles()
	s := snap.Quality()
	if len(tris) != s.NumBoundaryTriangles {
		t.Fatalf("triangle counts disagree")
	}
	if len(tris) == 0 {
		t.Fatal("no boundary triangles in multi-tissue mesh")
	}
}
