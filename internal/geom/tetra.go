package geom

import "math"

// Circumsphere computes the circumcenter and squared circumradius of
// the tetrahedron (a, b, c, d). ok is false when the four points are
// (numerically) coplanar, in which case center and r2 are meaningless.
//
// The computation solves the 3x3 linear system arising from
// |x-a|^2 = |x-b|^2 = |x-c|^2 = |x-d|^2 by Cramer's rule.
func Circumsphere(a, b, c, d Vec3) (center Vec3, r2 float64, ok bool) {
	ba := b.Sub(a)
	ca := c.Sub(a)
	da := d.Sub(a)

	l1 := ba.Norm2()
	l2 := ca.Norm2()
	l3 := da.Norm2()

	// 2 * determinant of [ba; ca; da]
	det := ba.X*(ca.Y*da.Z-ca.Z*da.Y) -
		ba.Y*(ca.X*da.Z-ca.Z*da.X) +
		ba.Z*(ca.X*da.Y-ca.Y*da.X)
	denom := 2 * det
	if denom == 0 {
		return Vec3{}, 0, false
	}

	// Cramer's rule for the offset from a.
	ox := l1*(ca.Y*da.Z-ca.Z*da.Y) - l2*(ba.Y*da.Z-ba.Z*da.Y) + l3*(ba.Y*ca.Z-ba.Z*ca.Y)
	oy := -l1*(ca.X*da.Z-ca.Z*da.X) + l2*(ba.X*da.Z-ba.Z*da.X) - l3*(ba.X*ca.Z-ba.Z*ca.X)
	oz := l1*(ca.X*da.Y-ca.Y*da.X) - l2*(ba.X*da.Y-ba.Y*da.X) + l3*(ba.X*ca.Y-ba.Y*ca.X)

	off := Vec3{ox / denom, oy / denom, oz / denom}
	center = a.Add(off)
	r2 = off.Norm2()
	if math.IsNaN(r2) || math.IsInf(r2, 0) {
		return Vec3{}, 0, false
	}
	return center, r2, true
}

// CircumsphereTriangle computes the circumcenter and squared
// circumradius of triangle (a, b, c) in 3D (the circle's center, which
// lies in the triangle's plane). ok is false for degenerate triangles.
func CircumsphereTriangle(a, b, c Vec3) (center Vec3, r2 float64, ok bool) {
	ab := b.Sub(a)
	ac := c.Sub(a)
	n := ab.Cross(ac)
	denom := 2 * n.Norm2()
	if denom == 0 {
		return Vec3{}, 0, false
	}
	// center = a + (|ac|^2 (n x ab) + |ab|^2 (ac x n)) / (2 |n|^2)
	t := n.Cross(ab).Scale(ac.Norm2()).Add(ac.Cross(n).Scale(ab.Norm2())).Scale(1 / denom)
	center = a.Add(t)
	r2 = t.Norm2()
	if math.IsNaN(r2) || math.IsInf(r2, 0) {
		return Vec3{}, 0, false
	}
	return center, r2, true
}

// TetraVolume returns the signed volume of tetrahedron (a, b, c, d);
// positive when d lies on the positive side of plane (a, b, c)
// oriented counter-clockwise.
func TetraVolume(a, b, c, d Vec3) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a)) / 6
}

// ShortestEdge returns the length of the shortest edge of tetrahedron
// (a, b, c, d).
func ShortestEdge(a, b, c, d Vec3) float64 {
	min := a.Dist2(b)
	for _, e := range [...]float64{
		a.Dist2(c), a.Dist2(d), b.Dist2(c), b.Dist2(d), c.Dist2(d),
	} {
		if e < min {
			min = e
		}
	}
	return math.Sqrt(min)
}

// RadiusEdgeRatio returns the circumradius-to-shortest-edge ratio of
// tetrahedron (a, b, c, d), the quality measure bounded by Delaunay
// refinement (rule R4 enforces a ratio <= 2). Degenerate tetrahedra
// report +Inf.
func RadiusEdgeRatio(a, b, c, d Vec3) float64 {
	_, r2, ok := Circumsphere(a, b, c, d)
	if !ok {
		return math.Inf(1)
	}
	se := ShortestEdge(a, b, c, d)
	if se == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(r2) / se
}

// DihedralAngles computes the six dihedral angles (in degrees) of
// tetrahedron (a, b, c, d), one per edge. Degenerate configurations
// produce NaN entries.
func DihedralAngles(a, b, c, d Vec3) [6]float64 {
	v := [4]Vec3{a, b, c, d}
	// Outward-ish normals of the four faces; face i omits vertex i.
	// The dihedral along the edge shared by faces i and j is the angle
	// between the planes, measured inside the tetrahedron.
	normal := func(p, q, r Vec3) Vec3 { return q.Sub(p).Cross(r.Sub(p)) }
	n := [4]Vec3{
		normal(v[1], v[2], v[3]), // face opposite 0
		normal(v[0], v[3], v[2]), // face opposite 1
		normal(v[0], v[1], v[3]), // face opposite 2
		normal(v[0], v[2], v[1]), // face opposite 3
	}
	// Fix orientation so every normal points away from the omitted vertex.
	for i := range n {
		opp := v[i]
		onFace := v[(i+1)%4]
		if n[i].Dot(opp.Sub(onFace)) > 0 {
			n[i] = n[i].Scale(-1)
		}
	}
	pairs := [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	var out [6]float64
	for k, pr := range pairs {
		ni, nj := n[pr[0]], n[pr[1]]
		cosv := -ni.Dot(nj) / (ni.Norm() * nj.Norm())
		if cosv > 1 {
			cosv = 1
		} else if cosv < -1 {
			cosv = -1
		}
		out[k] = math.Acos(cosv) * 180 / math.Pi
	}
	return out
}

// MinMaxDihedral returns the smallest and largest dihedral angle of
// tetrahedron (a, b, c, d) in degrees.
func MinMaxDihedral(a, b, c, d Vec3) (min, max float64) {
	ang := DihedralAngles(a, b, c, d)
	min, max = ang[0], ang[0]
	for _, x := range ang[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// TriangleAngles returns the three planar angles of triangle (a, b, c)
// in degrees.
func TriangleAngles(a, b, c Vec3) [3]float64 {
	angle := func(p, q, r Vec3) float64 {
		u := q.Sub(p)
		w := r.Sub(p)
		den := u.Norm() * w.Norm()
		if den == 0 {
			return 0
		}
		cosv := u.Dot(w) / den
		if cosv > 1 {
			cosv = 1
		} else if cosv < -1 {
			cosv = -1
		}
		return math.Acos(cosv) * 180 / math.Pi
	}
	return [3]float64{angle(a, b, c), angle(b, c, a), angle(c, a, b)}
}

// MinTriangleAngle returns the smallest planar angle of triangle
// (a, b, c) in degrees.
func MinTriangleAngle(a, b, c Vec3) float64 {
	ang := TriangleAngles(a, b, c)
	min := ang[0]
	if ang[1] < min {
		min = ang[1]
	}
	if ang[2] < min {
		min = ang[2]
	}
	return min
}

// AngleBound is a planar-angle threshold prepared for repeated
// "is the smallest angle below it" tests that avoid the arccosine:
// angles in [0°, 180°] order inversely to their cosines, so all but
// hairline cases are decided by comparing cosines.
type AngleBound struct {
	deg float64
	cos float64 // cosine of deg; ±Inf when deg is outside (0°, 180°]
}

// angleBoundBand is the half-width, in cosine, of the interval around
// the threshold inside which MinAngleBelow evaluates the arccosine
// exactly as TriangleAngles does. It exceeds the combined rounding
// error of math.Cos, math.Acos and the degree conversion by orders of
// magnitude, so outside it the cosine comparison cannot disagree.
const angleBoundBand = 1e-9

// NewAngleBound prepares the threshold deg (degrees).
func NewAngleBound(deg float64) AngleBound {
	b := AngleBound{deg: deg, cos: math.Cos(deg * math.Pi / 180)}
	switch {
	case deg > 180:
		b.cos = math.Inf(-1) // every angle is below
	case !(deg > 0):
		b.cos = math.Inf(1) // no angle is below
	}
	return b
}

// MinAngleBelow reports MinTriangleAngle(p, q, r) < bound, decision for
// decision: a corner at a zero-length edge counts as 0°, and a first
// corner that is not a number makes the answer false (the running
// minimum there starts, and stays, NaN).
func (b AngleBound) MinAngleBelow(p, q, r Vec3) bool {
	c0 := cornerCos(p, q, r)
	if c0 != c0 {
		return false
	}
	return b.below(c0) || b.below(cornerCos(q, r, p)) || b.below(cornerCos(r, p, q))
}

// cornerCos returns the cosine of the angle at p between q and r,
// computed and clamped as TriangleAngles does before its arccosine.
func cornerCos(p, q, r Vec3) float64 {
	u := q.Sub(p)
	w := r.Sub(p)
	den := u.Norm() * w.Norm()
	if den == 0 {
		return 1 // TriangleAngles' 0°
	}
	cosv := u.Dot(w) / den
	if cosv > 1 {
		cosv = 1
	} else if cosv < -1 {
		cosv = -1
	}
	return cosv
}

// below reports whether the angle with cosine cosv is below the bound.
func (b AngleBound) below(cosv float64) bool {
	switch {
	case cosv > b.cos+angleBoundBand:
		return true
	case cosv < b.cos-angleBoundBand:
		return false
	}
	return math.Acos(cosv)*180/math.Pi < b.deg
}
