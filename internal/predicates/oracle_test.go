package predicates

// The arbitrary-precision rational predicates below are the oracle the
// expansion-arithmetic code is checked against; math/big stays out of
// the shipped kernel.

import (
	"math/big"

	"repro/internal/geom"
)

// ratVec converts a point to exact rational coordinates.
type ratVec struct {
	x, y, z *big.Rat
}

func toRat(v geom.Vec3) ratVec {
	return ratVec{
		new(big.Rat).SetFloat64(v.X),
		new(big.Rat).SetFloat64(v.Y),
		new(big.Rat).SetFloat64(v.Z),
	}
}

// det3 computes the exact 3x3 determinant
// | a1 a2 a3 |
// | b1 b2 b3 |
// | c1 c2 c3 |
func det3(a1, a2, a3, b1, b2, b3, c1, c2, c3 *big.Rat) *big.Rat {
	t := new(big.Rat)
	u := new(big.Rat)
	res := new(big.Rat)

	// a1*(b2*c3 - b3*c2)
	t.Mul(b2, c3)
	u.Mul(b3, c2)
	t.Sub(t, u)
	res.Mul(a1, t)

	// - a2*(b1*c3 - b3*c1)
	t.Mul(b1, c3)
	u.Mul(b3, c1)
	t.Sub(t, u)
	t.Mul(a2, t)
	res.Sub(res, t)

	// + a3*(b1*c2 - b2*c1)
	t.Mul(b1, c2)
	u.Mul(b2, c1)
	t.Sub(t, u)
	t.Mul(a3, t)
	res.Add(res, t)

	return res
}

// orient3DRat is the arbitrary-precision rational implementation, kept
// as the test oracle for the expansion code.
func orient3DRat(a, b, c, d geom.Vec3) int {
	ra, rb, rc, rd := toRat(a), toRat(b), toRat(c), toRat(d)
	sub := func(p, q *big.Rat) *big.Rat { return new(big.Rat).Sub(p, q) }
	det := det3(
		sub(ra.x, rd.x), sub(ra.y, rd.y), sub(ra.z, rd.z),
		sub(rb.x, rd.x), sub(rb.y, rd.y), sub(rb.z, rd.z),
		sub(rc.x, rd.x), sub(rc.y, rd.y), sub(rc.z, rd.z),
	)
	return -det.Sign()
}

// inSphereRat is the arbitrary-precision rational implementation, kept
// as the test oracle for the expansion code.
func inSphereRat(a, b, c, d, e geom.Vec3) int {
	pts := [4]ratVec{toRat(a), toRat(b), toRat(c), toRat(d)}
	re := toRat(e)

	// Rows: (px-ex, py-ey, pz-ez, |p-e|^2) for p in {a,b,c,d}.
	var rows [4][4]*big.Rat
	for i, p := range pts {
		dx := new(big.Rat).Sub(p.x, re.x)
		dy := new(big.Rat).Sub(p.y, re.y)
		dz := new(big.Rat).Sub(p.z, re.z)
		l := new(big.Rat)
		t := new(big.Rat)
		l.Mul(dx, dx)
		t.Mul(dy, dy)
		l.Add(l, t)
		t.Mul(dz, dz)
		l.Add(l, t)
		rows[i] = [4]*big.Rat{dx, dy, dz, l}
	}

	// 4x4 determinant by cofactor expansion along the last column.
	det := new(big.Rat)
	for i := 0; i < 4; i++ {
		var m [3][3]*big.Rat
		k := 0
		for j := 0; j < 4; j++ {
			if j == i {
				continue
			}
			m[k] = [3]*big.Rat{rows[j][0], rows[j][1], rows[j][2]}
			k++
		}
		minor := det3(
			m[0][0], m[0][1], m[0][2],
			m[1][0], m[1][1], m[1][2],
			m[2][0], m[2][1], m[2][2],
		)
		term := new(big.Rat).Mul(rows[i][3], minor)
		// Sign pattern for expansion along column 3: (-1)^(i+3).
		if (i+3)%2 == 1 {
			det.Sub(det, term)
		} else {
			det.Add(det, term)
		}
	}
	return -det.Sign()
}
