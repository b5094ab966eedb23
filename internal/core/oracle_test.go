package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/arena"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/img"
)

// The rule evaluation as it stood before a cell's surface query was
// carried from creation to pop, its label read from the inside flag,
// and R3's questions reordered — kept verbatim as the oracle. Every
// question goes back to the image: two EDT lookups per cell, LabelAt
// for the circumcenter, the Voronoi-edge march ahead of the facet
// tests, MinTriangleAngle through three arccosines.

func (r *Refiner) oracleDistanceToSurface(p geom.Vec3) (float64, geom.Vec3, bool) {
	lo, hi := r.im.Bounds()
	eps := r.im.MinSpacing() / 2
	q := p.Max(lo.Add(geom.Vec3{X: eps, Y: eps, Z: eps})).
		Min(hi.Sub(geom.Vec3{X: eps, Y: eps, Z: eps}))
	sv, ok := r.edt.NearestSurfaceVoxel(q)
	if !ok {
		return math.Inf(1), geom.Vec3{}, false
	}
	return p.Dist(sv), sv, true
}

func (r *Refiner) oracleIsoPointNear(p geom.Vec3, sv geom.Vec3) (geom.Vec3, bool) {
	dir := sv.Sub(p)
	if n := dir.Norm(); n > 0 {
		dir = dir.Scale((n + 2*r.im.MinSpacing()) / n)
	} else {
		dir = geom.Vec3{X: 2 * r.im.MinSpacing()}
	}
	return r.im.SurfacePoint(p, p.Add(dir), surfaceTol*r.im.MinSpacing())
}

func (r *Refiner) oraclePoorQuick(c *delaunay.Cell) bool {
	if math.IsInf(c.R2, 1) {
		return false
	}
	cc := c.CC
	rad := math.Sqrt(c.R2)
	dist, _, haveSurface := r.oracleDistanceToSurface(cc)
	margin := 2*r.im.MinSpacing() + r.im.Spacing.Norm()
	if haveSurface && dist <= rad+margin {
		return true
	}
	if r.im.LabelAt(cc) != 0 {
		se := shortestEdge(r.mesh, c)
		if se > 0 && rad/se > r.cfg.MaxRadiusEdge {
			return true
		}
		if rad > r.cfg.SizeFunc(cc) {
			return true
		}
	}
	return false
}

func (r *Refiner) oracleClassify(c *delaunay.Cell) (action, bool) {
	if c.Dead() {
		return action{}, false
	}
	if math.IsInf(c.R2, 1) {
		return action{}, false
	}
	cc := c.CC
	rad := math.Sqrt(c.R2)

	dist, sv, haveSurface := r.oracleDistanceToSurface(cc)
	if haveSurface && dist <= rad {
		if z, ok := r.oracleIsoPointNear(cc, sv); ok && !r.isoGrid.AnyWithin(z, r.deltaAt(z)) {
			return action{rule: R1, kind: delaunay.KindIso, point: z}, true
		}
		if rad > 2*r.deltaAt(cc) {
			return action{rule: R2, kind: delaunay.KindCircum, point: cc}, true
		}
	}

	m := r.mesh
	for f := 0; f < 4; f++ {
		nbh := c.Neighbor(f)
		if nbh == arena.Nil {
			continue
		}
		nb := m.Cells.At(nbh)
		if math.IsInf(nb.R2, 1) {
			continue
		}
		segLen := cc.Dist(nb.CC)
		if haveSurface && dist > segLen+2*r.im.MinSpacing()+r.im.Spacing.Norm() {
			continue
		}
		cSurf, ok := r.im.SurfacePoint(cc, nb.CC, surfaceTol*r.im.MinSpacing())
		if !ok {
			continue
		}
		face := c.Face(f)
		offSurface := false
		for _, vh := range face {
			k := m.Verts.At(vh).Kind
			if k != delaunay.KindIso && k != delaunay.KindSurface {
				offSurface = true
				break
			}
		}
		if !offSurface {
			a := m.Pos(face[0])
			b := m.Pos(face[1])
			c3 := m.Pos(face[2])
			offSurface = geom.MinTriangleAngle(a, b, c3) < r.cfg.MinFacetAngle
		}
		if offSurface && !r.isoGrid.AnyWithin(cSurf, r.deltaAt(cSurf)/4) {
			return action{rule: R3, kind: delaunay.KindSurface, point: cSurf}, true
		}
	}

	if r.im.LabelAt(cc) != 0 {
		se := shortestEdge(m, c)
		if se > 0 && rad/se > r.cfg.MaxRadiusEdge {
			return action{rule: R4, kind: delaunay.KindCircum, point: cc}, true
		}
		if rad > r.cfg.SizeFunc(cc) {
			return action{rule: R5, kind: delaunay.KindCircum, point: cc}, true
		}
	}
	return action{}, false
}

// TestDecisionsMatchOracle replays both rule evaluations over every
// live cell of a finished and of a cancelled run on each phantom and
// requires the same creation-time verdict and the same (rule, kind,
// point), bit for bit. A finished run answers "nothing applies" almost
// everywhere; the cancelled one is stopped mid-refinement, where every
// rule still has cells to fire on.
func TestDecisionsMatchOracle(t *testing.T) {
	scale := 48
	if testing.Short() {
		scale = 32
	}
	for _, tc := range []struct {
		name  string
		image *img.Image
	}{
		{"abdominal", img.AbdominalPhantom(scale, scale, scale*2/3)},
		{"knee", img.KneePhantom(scale, scale, scale)},
		{"headneck", img.HeadNeckPhantom(scale, scale, scale)},
	} {
		pending := 0 // surface-rule decisions seen across the cancelled runs
		for _, cancelAfter := range []int{0, 300, 1000, 4000} {
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			s, err := NewSession(Config{
				Workers: 1,
				// Volume cells beyond 4 voxels keep R5 in play; the call
				// count puts the cancellation early or late in the run.
				SizeFunc: func(geom.Vec3) float64 {
					if calls++; calls == cancelAfter {
						cancel()
					}
					return 4
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(ctx, tc.image)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if cancelAfter == 0 && res.Status != StatusCompleted {
				t.Fatalf("%s: status %v", tc.name, res.Status)
			}

			r := newRefiner(nil, res.Config)
			r.edt, r.mesh, r.isoGrid, r.ccGrid = s.edtTr, s.mesh, s.isoGrid, s.ccGrid
			cells, fired := 0, [7]int{}
			r.mesh.LiveCells(func(h arena.Handle, c *delaunay.Cell) {
				cells++
				near, poor := r.poorQuick(c)
				if want := r.oraclePoorQuick(c); poor != want {
					t.Fatalf("%s cancelAfter=%d cell %d: poorQuick %v, oracle %v", tc.name, cancelAfter, h, poor, want)
				}
				if !math.IsInf(c.R2, 1) {
					_, sv, ok := r.oracleDistanceToSurface(c.CC)
					if near.ok != ok || near.sv != sv {
						t.Fatalf("%s cancelAfter=%d cell %d: carried query %+v, oracle (%v, %v)", tc.name, cancelAfter, h, near, sv, ok)
					}
				}
				got, gotOK := r.classify(c, near)
				want, wantOK := r.oracleClassify(c)
				if gotOK != wantOK || got != want {
					t.Fatalf("%s cancelAfter=%d cell %d: classify (%+v, %v), oracle (%+v, %v)",
						tc.name, cancelAfter, h, got, gotOK, want, wantOK)
				}
				fired[got.rule]++
				// The arccosine-free facet test on real facets, at the
				// configured bound and two the tuned daemon variants use.
				for f := 0; f < 4; f++ {
					face := c.Face(f)
					a, b, c3 := r.mesh.Pos(face[0]), r.mesh.Pos(face[1]), r.mesh.Pos(face[2])
					for _, deg := range []float64{r.cfg.MinFacetAngle, 15, 45} {
						if got, want := geom.NewAngleBound(deg).MinAngleBelow(a, b, c3), geom.MinTriangleAngle(a, b, c3) < deg; got != want {
							t.Fatalf("%s cell %d face %d: MinAngleBelow(%v°) = %v, MinTriangleAngle = %v",
								tc.name, h, f, deg, got, geom.MinTriangleAngle(a, b, c3))
						}
					}
				}
			})
			if res.Status == StatusAborted {
				pending += fired[R1] + fired[R3]
			}
			t.Logf("%s cancelAfter=%d (%v): %d live cells, decisions by rule %v", tc.name, cancelAfter, res.Status, cells, fired)
			s.Close()
		}
		if pending == 0 {
			t.Errorf("%s: no cancelled run left a surface rule to fire: the comparison is vacuous", tc.name)
		}
	}
}
