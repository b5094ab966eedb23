// Package predicates implements robust geometric orientation and
// in-sphere predicates for 3D Delaunay triangulation.
//
// Each predicate is evaluated first in fast floating-point arithmetic
// with a Shewchuk-style static error filter; when the filter cannot
// certify the sign, the computation is repeated exactly with
// floating-point expansion arithmetic (expansion.go), which represents
// every intermediate value without rounding. The result is therefore
// always the exact sign of the underlying determinant, as required for
// the Bowyer-Watson kernel to stay consistent ("exact predicates",
// paper Section 7).
package predicates

import (
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

// epsilon is the float64 machine epsilon 2^-53 used by the error
// filters below (Shewchuk, "Adaptive Precision Floating-Point
// Arithmetic and Fast Robust Geometric Predicates").
const epsilon = 1.0 / (1 << 53)

var (
	o3dErrBound = (7.0 + 56.0*epsilon) * epsilon
	ispErrBound = (16.0 + 224.0*epsilon) * epsilon
)

// Orient3D returns +1 if point d lies below the plane through (a,b,c)
// (i.e. the tetrahedron a,b,c,d is positively oriented), -1 if above,
// and 0 if the four points are exactly coplanar.
//
// "Below" follows the right-hand rule: positive when (b-a)x(c-a) . (d-a) > 0.
func Orient3D(a, b, c, d geom.Vec3) int {
	adx, ady, adz := a.X-d.X, a.Y-d.Y, a.Z-d.Z
	bdx, bdy, bdz := b.X-d.X, b.Y-d.Y, b.Z-d.Z
	cdx, cdy, cdz := c.X-d.X, c.Y-d.Y, c.Z-d.Z

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	cdxady := cdx * ady
	adxcdy := adx * cdy
	adxbdy := adx * bdy
	bdxady := bdx * ady

	det := adz*(bdxcdy-cdxbdy) + bdz*(cdxady-adxcdy) + cdz*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*math.Abs(adz) +
		(math.Abs(cdxady)+math.Abs(adxcdy))*math.Abs(bdz) +
		(math.Abs(adxbdy)+math.Abs(bdxady))*math.Abs(cdz)
	errBound := o3dErrBound * permanent
	if det > errBound {
		return -1
	}
	if -det > errBound {
		return 1
	}
	ExactCalls.Orient.Add(1)
	return orient3DExact(a, b, c, d)
}

// InSphere returns +1 if point e lies strictly inside the circumsphere
// of the positively oriented tetrahedron (a,b,c,d), -1 if strictly
// outside, and 0 if exactly on the sphere.
//
// The caller must pass a positively oriented tetrahedron
// (Orient3D(a,b,c,d) > 0); otherwise the sign is flipped.
func InSphere(a, b, c, d, e geom.Vec3) int {
	aex, aey, aez := a.X-e.X, a.Y-e.Y, a.Z-e.Z
	bex, bey, bez := b.X-e.X, b.Y-e.Y, b.Z-e.Z
	cex, cey, cez := c.X-e.X, c.Y-e.Y, c.Z-e.Z
	dex, dey, dez := d.X-e.X, d.Y-e.Y, d.Z-e.Z

	aexbey := aex * bey
	bexaey := bex * aey
	ab := aexbey - bexaey
	bexcey := bex * cey
	cexbey := cex * bey
	bc := bexcey - cexbey
	cexdey := cex * dey
	dexcey := dex * cey
	cd := cexdey - dexcey
	dexaey := dex * aey
	aexdey := aex * dey
	da := dexaey - aexdey

	aexcey := aex * cey
	cexaey := cex * aey
	ac := aexcey - cexaey
	bexdey := bex * dey
	dexbey := dex * bey
	bd := bexdey - dexbey

	abc := aez*bc - bez*ac + cez*ab
	bcd := bez*cd - cez*bd + dez*bc
	cda := cez*da + dez*ac + aez*cd
	dab := dez*ab + aez*bd + bez*da

	alift := aex*aex + aey*aey + aez*aez
	blift := bex*bex + bey*bey + bez*bez
	clift := cex*cex + cey*cey + cez*cez
	dlift := dex*dex + dey*dey + dez*dez

	det := (dlift*abc - clift*dab) + (blift*cda - alift*bcd)

	aezplus := math.Abs(aez)
	bezplus := math.Abs(bez)
	cezplus := math.Abs(cez)
	dezplus := math.Abs(dez)
	aexbeyplus := math.Abs(aexbey)
	bexaeyplus := math.Abs(bexaey)
	bexceyplus := math.Abs(bexcey)
	cexbeyplus := math.Abs(cexbey)
	cexdeyplus := math.Abs(cexdey)
	dexceyplus := math.Abs(dexcey)
	dexaeyplus := math.Abs(dexaey)
	aexdeyplus := math.Abs(aexdey)
	aexceyplus := math.Abs(aexcey)
	cexaeyplus := math.Abs(cexaey)
	bexdeyplus := math.Abs(bexdey)
	dexbeyplus := math.Abs(dexbey)
	permanent := ((cexdeyplus+dexceyplus)*bezplus+
		(dexbeyplus+bexdeyplus)*cezplus+
		(bexceyplus+cexbeyplus)*dezplus)*alift +
		((dexaeyplus+aexdeyplus)*cezplus+
			(aexceyplus+cexaeyplus)*dezplus+
			(cexdeyplus+dexceyplus)*aezplus)*blift +
		((aexbeyplus+bexaeyplus)*dezplus+
			(bexdeyplus+dexbeyplus)*aezplus+
			(dexaeyplus+aexdeyplus)*bezplus)*clift +
		((bexceyplus+cexbeyplus)*aezplus+
			(cexaeyplus+aexceyplus)*bezplus+
			(aexbeyplus+bexaeyplus)*cezplus)*dlift

	errBound := ispErrBound * permanent
	if det > errBound {
		return -1
	}
	if -det > errBound {
		return 1
	}
	ExactCalls.InSphere.Add(1)
	return inSphereExact(a, b, c, d, e)
}

// InSphereSoS is InSphere with a symbolic perturbation that removes
// degeneracies: cospherical configurations are resolved as if every
// point's lifted coordinate were lowered by an infinitesimal weight
// growing with the point's lexicographic (x, y, z) rank. The result is
// never 0 for five pairwise-distinct points, and is globally
// consistent — all callers see the same "perturbed Delaunay"
// triangulation, which is what makes the vertex-removal
// re-triangulation match the shared mesh exactly (paper Section 4.2).
//
// Derivation: with rows (a, b, c, d, e) in the 5x5 in-sphere matrix
// and the lift column perturbed by -eps_i, the perturbed determinant's
// sign is decided by the cofactor of the highest-ranked point, which
// is an Orient3D of the other four points (in their original order,
// with alternating sign). For a positively oriented (a, b, c, d) the
// final fallback, the query point's own cofactor, is
// -Orient3D(a,b,c,d) != 0, so the scan always terminates.
func InSphereSoS(a, b, c, d, e geom.Vec3) int {
	if s := InSphere(a, b, c, d, e); s != 0 {
		return s
	}
	pts := [5]geom.Vec3{a, b, c, d, e}
	// Cofactor of each row i (sign of d E / d eps_i).
	cof := [5]func() int{
		func() int { return -Orient3D(b, c, d, e) },
		func() int { return Orient3D(a, c, d, e) },
		func() int { return -Orient3D(a, b, d, e) },
		func() int { return Orient3D(a, b, c, e) },
		func() int { return -Orient3D(a, b, c, d) },
	}
	// Indices sorted by lexicographic rank, descending: the
	// largest-ranked point carries the dominant perturbation.
	order := [5]int{0, 1, 2, 3, 4}
	for i := 1; i < 5; i++ {
		for j := i; j > 0 && lexLess(pts[order[j-1]], pts[order[j]]); j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	for _, i := range order {
		if s := cof[i](); s != 0 {
			return s
		}
	}
	return 0 // unreachable for five distinct points with oriented (a,b,c,d)
}

func lexLess(p, q geom.Vec3) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.Z < q.Z
}

// orient3DExact evaluates the orientation determinant exactly with
// expansion arithmetic over a pooled arena.
func orient3DExact(a, b, c, d geom.Vec3) int {
	ar := expPool.Get().(*expArena)
	ar.reset()
	det := det3Exp(ar,
		expDiff2(ar, a.X, d.X), expDiff2(ar, a.Y, d.Y), expDiff2(ar, a.Z, d.Z),
		expDiff2(ar, b.X, d.X), expDiff2(ar, b.Y, d.Y), expDiff2(ar, b.Z, d.Z),
		expDiff2(ar, c.X, d.X), expDiff2(ar, c.Y, d.Y), expDiff2(ar, c.Z, d.Z),
	)
	s := -expSign(det)
	expPool.Put(ar)
	return s
}

// inSphereExact evaluates the in-sphere determinant exactly with
// expansion arithmetic over a pooled arena, expanding the 4x4
// difference matrix along the lifted column.
func inSphereExact(a, b, c, d, e geom.Vec3) int {
	ar := expPool.Get().(*expArena)
	ar.reset()
	pts := [4]geom.Vec3{a, b, c, d}
	var rows [4][4][]float64
	for i, p := range pts {
		dx := expDiff2(ar, p.X, e.X)
		dy := expDiff2(ar, p.Y, e.Y)
		dz := expDiff2(ar, p.Z, e.Z)
		lift := expSum(ar, expSum(ar, expMul(ar, dx, dx), expMul(ar, dy, dy)), expMul(ar, dz, dz))
		rows[i] = [4][]float64{dx, dy, dz, lift}
	}
	var det []float64
	for i := 0; i < 4; i++ {
		var m [3][3][]float64
		k := 0
		for j := 0; j < 4; j++ {
			if j == i {
				continue
			}
			m[k] = [3][]float64{rows[j][0], rows[j][1], rows[j][2]}
			k++
		}
		minor := det3Exp(ar,
			m[0][0], m[0][1], m[0][2],
			m[1][0], m[1][1], m[1][2],
			m[2][0], m[2][1], m[2][2],
		)
		term := expMul(ar, rows[i][3], minor)
		if (i+3)%2 == 1 {
			term = expNeg(term)
		}
		det = expSum(ar, det, term)
	}
	s := -expSign(det)
	expPool.Put(ar)
	return s
}

// ExactCalls counts escalations to exact arithmetic (diagnostics).
var ExactCalls struct {
	Orient, InSphere atomic.Int64
}
