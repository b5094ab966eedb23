package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasics(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(w); got != (Vec3{2*6 - 3*(-5), 3*4 - 1*6, 1*(-5) - 2*4}) {
		t.Errorf("Cross = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		for _, x := range []float64{ax, ay, az, bx, by, bz} {
			if math.IsNaN(x) || math.Abs(x) > 1e6 {
				return true
			}
		}
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return true
		}
		return math.Abs(c.Dot(a))/(scale*c.Norm()+1) < 1e-9 && math.Abs(c.Dot(b))/(scale*c.Norm()+1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{2, 4, 8}
	if got := a.Lerp(b, 0.5); got != (Vec3{1, 2, 4}) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vec3{3, 0, 4}
	n := v.Normalize()
	if !almostEq(n.Norm(), 1, 1e-15) {
		t.Errorf("Normalize norm = %v", n.Norm())
	}
	zero := Vec3{}
	if zero.Normalize() != zero {
		t.Error("Normalize of zero changed the vector")
	}
}

func TestMinMax(t *testing.T) {
	v := Vec3{1, 5, 3}
	w := Vec3{2, 4, 3}
	if got := v.Min(w); got != (Vec3{1, 4, 3}) {
		t.Errorf("Min = %v", got)
	}
	if got := v.Max(w); got != (Vec3{2, 5, 3}) {
		t.Errorf("Max = %v", got)
	}
}

func TestCircumsphereRegularTetra(t *testing.T) {
	// A regular tetrahedron inscribed in the unit sphere: the four
	// alternating cube corners scaled to unit length.
	s := 1 / math.Sqrt(3)
	a := Vec3{s, s, s}
	b := Vec3{s, -s, -s}
	c := Vec3{-s, s, -s}
	d := Vec3{-s, -s, s}
	center, r2, ok := Circumsphere(a, b, c, d)
	if !ok {
		t.Fatal("Circumsphere reported degenerate")
	}
	if center.Norm() > 1e-12 {
		t.Errorf("center = %v, want origin", center)
	}
	if !almostEq(r2, 1, 1e-12) {
		t.Errorf("r2 = %v, want 1", r2)
	}
}

func TestCircumsphereEquidistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		b := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		c := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		d := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		center, r2, ok := Circumsphere(a, b, c, d)
		if !ok {
			continue // random coplanar is vanishingly rare but allowed
		}
		for _, p := range []Vec3{a, b, c, d} {
			if !almostEq(center.Dist2(p), r2, 1e-6*(1+r2)) {
				t.Fatalf("vertex %v not equidistant: d2=%v r2=%v", p, center.Dist2(p), r2)
			}
		}
	}
}

func TestCircumsphereDegenerate(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{1, 0, 0}
	c := Vec3{0, 1, 0}
	d := Vec3{1, 1, 0} // coplanar
	if _, _, ok := Circumsphere(a, b, c, d); ok {
		t.Error("coplanar points reported as non-degenerate")
	}
}

func TestCircumsphereTriangle(t *testing.T) {
	a := Vec3{1, 0, 5}
	b := Vec3{-1, 0, 5}
	c := Vec3{0, 1, 5}
	center, r2, ok := CircumsphereTriangle(a, b, c)
	if !ok {
		t.Fatal("degenerate")
	}
	for _, p := range []Vec3{a, b, c} {
		if !almostEq(center.Dist2(p), r2, 1e-12) {
			t.Errorf("not equidistant to %v", p)
		}
	}
	if _, _, ok := CircumsphereTriangle(a, a, c); ok {
		t.Error("degenerate triangle accepted")
	}
}

func TestTetraVolume(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{1, 0, 0}
	c := Vec3{0, 1, 0}
	d := Vec3{0, 0, 1}
	if got := TetraVolume(a, b, c, d); !almostEq(got, 1.0/6, 1e-15) {
		t.Errorf("volume = %v, want 1/6", got)
	}
	if got := TetraVolume(a, c, b, d); !almostEq(got, -1.0/6, 1e-15) {
		t.Errorf("swapped volume = %v, want -1/6", got)
	}
}

func TestShortestEdge(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{0.5, 0, 0}
	c := Vec3{0, 2, 0}
	d := Vec3{0, 0, 3}
	if got := ShortestEdge(a, b, c, d); got != 0.5 {
		t.Errorf("ShortestEdge = %v, want 0.5", got)
	}
}

func TestRadiusEdgeRatioRegular(t *testing.T) {
	// Regular tetra: circumradius/edge = sqrt(3/8).
	s := 1 / math.Sqrt(3)
	a := Vec3{s, s, s}
	b := Vec3{s, -s, -s}
	c := Vec3{-s, s, -s}
	d := Vec3{-s, -s, s}
	want := math.Sqrt(3.0 / 8.0)
	if got := RadiusEdgeRatio(a, b, c, d); !almostEq(got, want, 1e-12) {
		t.Errorf("RadiusEdgeRatio = %v, want %v", got, want)
	}
}

func TestRadiusEdgeRatioDegenerate(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{1, 0, 0}
	c := Vec3{0, 1, 0}
	if !math.IsInf(RadiusEdgeRatio(a, b, c, Vec3{1, 1, 0}), 1) {
		t.Error("degenerate tetra should have infinite ratio")
	}
}

func TestDihedralAnglesRegular(t *testing.T) {
	// All six dihedral angles of a regular tetrahedron equal
	// arccos(1/3) ~ 70.5288 degrees.
	s := 1 / math.Sqrt(3)
	a := Vec3{s, s, s}
	b := Vec3{s, -s, -s}
	c := Vec3{-s, s, -s}
	d := Vec3{-s, -s, s}
	want := math.Acos(1.0/3.0) * 180 / math.Pi
	for _, ang := range DihedralAngles(a, b, c, d) {
		if !almostEq(ang, want, 1e-9) {
			t.Errorf("dihedral = %v, want %v", ang, want)
		}
	}
	min, max := MinMaxDihedral(a, b, c, d)
	if !almostEq(min, want, 1e-9) || !almostEq(max, want, 1e-9) {
		t.Errorf("MinMaxDihedral = %v, %v", min, max)
	}
}

func TestDihedralAnglesCorner(t *testing.T) {
	// Corner tetra (0,e1,e2,e3): three right dihedrals along the
	// coordinate axes edges and three of arccos(... ) along the
	// diagonal edges. Check min=60 isn't asserted; just sanity range
	// and the three exact 90s.
	a := Vec3{0, 0, 0}
	b := Vec3{1, 0, 0}
	c := Vec3{0, 1, 0}
	d := Vec3{0, 0, 1}
	ang := DihedralAngles(a, b, c, d)
	n90 := 0
	for _, x := range ang {
		if x <= 0 || x >= 180 || math.IsNaN(x) {
			t.Fatalf("dihedral out of range: %v", ang)
		}
		if almostEq(x, 90, 1e-9) {
			n90++
		}
	}
	if n90 != 3 {
		t.Errorf("corner tetra has %d right dihedrals, want 3 (%v)", n90, ang)
	}
}

func TestDihedralSumProperty(t *testing.T) {
	// For random non-degenerate tetrahedra every dihedral is in
	// (0, 180) and the angles around each face make sense.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		b := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		c := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		d := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		if math.Abs(TetraVolume(a, b, c, d)) < 1e-4 {
			continue
		}
		for _, x := range DihedralAngles(a, b, c, d) {
			if x <= 0 || x >= 180 || math.IsNaN(x) {
				t.Fatalf("dihedral out of range: %v", x)
			}
		}
	}
}

func TestTriangleAngles(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{1, 0, 0}
	c := Vec3{0, 1, 0}
	ang := TriangleAngles(a, b, c)
	if !almostEq(ang[0], 90, 1e-12) {
		t.Errorf("angle at a = %v, want 90", ang[0])
	}
	if !almostEq(ang[1], 45, 1e-12) || !almostEq(ang[2], 45, 1e-12) {
		t.Errorf("angles = %v, want 90/45/45", ang)
	}
	if got := MinTriangleAngle(a, b, c); !almostEq(got, 45, 1e-12) {
		t.Errorf("MinTriangleAngle = %v", got)
	}
}

func TestTriangleAngleSum(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz float64) bool {
		for _, x := range []float64{ax, ay, az, bx, by, bz, cx, cy, cz} {
			if math.IsNaN(x) || math.Abs(x) > 1e6 {
				return true
			}
		}
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		c := Vec3{cx, cy, cz}
		if b.Sub(a).Cross(c.Sub(a)).Norm() < 1e-6 {
			return true // degenerate
		}
		ang := TriangleAngles(a, b, c)
		sum := ang[0] + ang[1] + ang[2]
		return almostEq(sum, 180, 1e-6)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5)), Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestAngleBoundMatchesMinTriangleAngle: the arccosine-free test must
// make MinTriangleAngle's decision on every input — degenerate
// triangles (a zero-length edge is a 0° corner), thresholds outside
// (0°, 180°], and triangles whose smallest angle sits within rounding
// of the threshold, where the cosine comparison hands over to the
// exact path.
func TestAngleBoundMatchesMinTriangleAngle(t *testing.T) {
	bounds := []float64{
		-5, 0, 1e-9, 10, 29.999999999, 30, 30.000000001, 59.9999999, 60, 60.0000001,
		90, 120, 179.9, 180, 181, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	tris := [][3]Vec3{
		{{0, 0, 0}, {0, 0, 0}, {1, 0, 0}},                  // zero-length edge
		{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}},                  // a point
		{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}},                  // collinear: 0°, 180°, 0°
		{{0, 0, 0}, {1, 0, 0}, {0.5, math.Sqrt(3) / 2, 0}}, // equilateral
		{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}},                  // 90/45/45
		{{0, 0, 0}, {1, 0, 0}, {0, 1e-300, 0}},             // underflowing products
		{{0, 0, 0}, {1e200, 0, 0}, {0, 1e200, 0}},          // overflowing products
		{{0, 0, 0}, {math.NaN(), 0, 0}, {0, 1, 0}},
	}
	// Isosceles triangles with apex angle at, and a few ulps around,
	// every finite threshold.
	for _, deg := range bounds {
		if !(deg > 0 && deg < 180) {
			continue
		}
		for _, nudge := range []float64{0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-10, -1e-10, 1e-8, -1e-8} {
			half := (deg/2 + nudge) * math.Pi / 180
			tris = append(tris, [3]Vec3{{0, 0, 0}, {math.Cos(half), math.Sin(half), 0}, {math.Cos(half), -math.Sin(half), 0}})
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		var tr [3]Vec3
		for j := range tr {
			tr[j] = Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64() * 1e-3}
		}
		tris = append(tris, tr)
	}
	for _, deg := range bounds {
		b := NewAngleBound(deg)
		for _, tr := range tris {
			want := MinTriangleAngle(tr[0], tr[1], tr[2]) < deg
			if got := b.MinAngleBelow(tr[0], tr[1], tr[2]); got != want {
				t.Errorf("bound %v, triangle %v: MinAngleBelow = %v, MinTriangleAngle = %v",
					deg, tr, got, MinTriangleAngle(tr[0], tr[1], tr[2]))
			}
		}
	}
}
