// Package quality evaluates the element quality and surface fidelity
// statistics that Table 6 of the paper reports: radius-edge ratios,
// dihedral angles, boundary planar angles, and the symmetric Hausdorff
// distance between the mesh boundary and the image isosurface.
package quality

import (
	"math"

	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/img"
)

// Triangle is a boundary triangle of the output mesh.
type Triangle struct {
	A, B, C geom.Vec3
}

// Centroid returns the triangle's centroid.
func (t Triangle) Centroid() geom.Vec3 {
	return t.A.Add(t.B).Add(t.C).Scale(1.0 / 3.0)
}

// Stats summarizes element quality of a final mesh.
type Stats struct {
	NumTets int

	MaxRadiusEdge float64
	MinDihedral   float64 // degrees
	MaxDihedral   float64 // degrees

	NumBoundaryTriangles   int
	MinBoundaryPlanarAngle float64 // degrees
}

// Evaluate computes Stats over an indexed tetrahedral mesh — cells
// indexing verts — and its boundary triangulation (exterior and
// tissue-interface facets), the geometry core.MeshSnapshot.Quality
// passes it.
func Evaluate(verts []geom.Vec3, cells [][4]int32, boundary []Triangle) Stats {
	s := Stats{
		NumTets:                len(cells),
		NumBoundaryTriangles:   len(boundary),
		MinDihedral:            math.Inf(1),
		MaxDihedral:            math.Inf(-1),
		MinBoundaryPlanarAngle: math.Inf(1),
	}
	for _, tri := range boundary {
		if a := geom.MinTriangleAngle(tri.A, tri.B, tri.C); a < s.MinBoundaryPlanarAngle {
			s.MinBoundaryPlanarAngle = a
		}
	}
	for _, c := range cells {
		a, b, cc, d := verts[c[0]], verts[c[1]], verts[c[2]], verts[c[3]]
		if re := geom.RadiusEdgeRatio(a, b, cc, d); re > s.MaxRadiusEdge {
			s.MaxRadiusEdge = re
		}
		lo, hi := geom.MinMaxDihedral(a, b, cc, d)
		if lo < s.MinDihedral {
			s.MinDihedral = lo
		}
		if hi > s.MaxDihedral {
			s.MaxDihedral = hi
		}
	}
	return s
}

// pointTriangleDist2 returns the squared distance from p to triangle
// (a, b, c) (Ericson, Real-Time Collision Detection).
func pointTriangleDist2(p, a, b, c geom.Vec3) float64 {
	ab := b.Sub(a)
	ac := c.Sub(a)
	ap := p.Sub(a)
	d1 := ab.Dot(ap)
	d2 := ac.Dot(ap)
	if d1 <= 0 && d2 <= 0 {
		return ap.Norm2()
	}
	bp := p.Sub(b)
	d3 := ab.Dot(bp)
	d4 := ac.Dot(bp)
	if d3 >= 0 && d4 <= d3 {
		return bp.Norm2()
	}
	vc := d1*d4 - d3*d2
	if vc <= 0 && d1 >= 0 && d3 <= 0 {
		v := d1 / (d1 - d3)
		return ap.Sub(ab.Scale(v)).Norm2()
	}
	cp := p.Sub(c)
	d5 := ab.Dot(cp)
	d6 := ac.Dot(cp)
	if d6 >= 0 && d5 <= d6 {
		return cp.Norm2()
	}
	vb := d5*d2 - d1*d6
	if vb <= 0 && d2 >= 0 && d6 <= 0 {
		w := d2 / (d2 - d6)
		return ap.Sub(ac.Scale(w)).Norm2()
	}
	va := d3*d6 - d5*d4
	if va <= 0 && (d4-d3) >= 0 && (d5-d6) >= 0 {
		w := (d4 - d3) / ((d4 - d3) + (d5 - d6))
		return bp.Sub(c.Sub(b).Scale(w)).Norm2()
	}
	denom := 1 / (va + vb + vc)
	v := vb * denom
	w := vc * denom
	return ap.Sub(ab.Scale(v)).Sub(ac.Scale(w)).Norm2()
}

// triGrid accelerates nearest-triangle queries with a uniform grid
// over triangle centroids.
type triGrid struct {
	tris []Triangle
	cell float64
	lo   geom.Vec3
	n    [3]int
	idx  map[[3]int][]int32
}

func newTriGrid(tris []Triangle, lo, hi geom.Vec3) *triGrid {
	span := hi.Sub(lo)
	// Aim for a few triangles per cell.
	cell := math.Cbrt(span.X * span.Y * span.Z / (float64(len(tris)) + 1))
	if cell <= 0 {
		cell = 1
	}
	g := &triGrid{tris: tris, cell: cell, lo: lo, idx: make(map[[3]int][]int32)}
	for i, t := range tris {
		k := g.key(t.Centroid())
		g.idx[k] = append(g.idx[k], int32(i))
	}
	return g
}

func (g *triGrid) key(p geom.Vec3) [3]int {
	d := p.Sub(g.lo)
	return [3]int{int(d.X / g.cell), int(d.Y / g.cell), int(d.Z / g.cell)}
}

// dist returns the distance from p to the nearest triangle.
func (g *triGrid) dist(p geom.Vec3) float64 {
	center := g.key(p)
	best := math.Inf(1)
	// Expand rings until a hit is found and the ring lower bound
	// exceeds the best distance.
	for ring := 0; ring < 1<<20; ring++ {
		lower := float64(ring-1) * g.cell
		if !math.IsInf(best, 1) && lower > math.Sqrt(best) {
			break
		}
		hit := false
		for dz := -ring; dz <= ring; dz++ {
			for dy := -ring; dy <= ring; dy++ {
				for dx := -ring; dx <= ring; dx++ {
					if max3(abs(dx), abs(dy), abs(dz)) != ring {
						continue // only the shell
					}
					k := [3]int{center[0] + dx, center[1] + dy, center[2] + dz}
					for _, ti := range g.idx[k] {
						t := g.tris[ti]
						if d2 := pointTriangleDist2(p, t.A, t.B, t.C); d2 < best {
							best = d2
						}
						hit = true
					}
				}
			}
		}
		_ = hit
	}
	return math.Sqrt(best)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// Hausdorff computes the two-sided (symmetric) Hausdorff distance
// between the mesh boundary triangles and the image isosurface,
// estimated at voxel resolution: mesh→surface uses the distance
// transform of the surface voxels, surface→mesh samples an exact
// interface point near every surface voxel and measures the distance
// to the nearest boundary triangle.
func Hausdorff(tris []Triangle, im *img.Image, tr *edt.Transform) (meshToSurf, surfToMesh float64) {
	if len(tris) == 0 {
		return math.Inf(1), math.Inf(1)
	}
	// Mesh -> surface: sample each triangle at its corners, edge
	// midpoints and centroid.
	for _, t := range tris {
		samples := [7]geom.Vec3{
			t.A, t.B, t.C,
			t.A.Lerp(t.B, 0.5), t.B.Lerp(t.C, 0.5), t.C.Lerp(t.A, 0.5),
			t.Centroid(),
		}
		for _, p := range samples {
			if d := tr.DistanceToSurface(p); !math.IsInf(d, 1) && d > meshToSurf {
				meshToSurf = d
			}
		}
	}

	// Surface -> mesh: one exact interface sample per surface voxel.
	lo, hi := im.Bounds()
	g := newTriGrid(tris, lo, hi)
	for _, idx := range im.SurfaceVoxels() {
		i, j, k := im.Unindex(idx)
		c := im.VoxelCenter(i, j, k)
		// March toward the nearest differently-labeled 6-neighbor to
		// pin an exact interface point.
		p := c
		l := im.At(i, j, k)
		dirs := [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
		for _, d := range dirs {
			if im.At(i+d[0], j+d[1], k+d[2]) != l {
				q := im.VoxelCenter(i+d[0], j+d[1], k+d[2])
				if sp, ok := im.SurfacePoint(c, q, 1e-3*im.MinSpacing()); ok {
					p = sp
				}
				break
			}
		}
		if d := g.dist(p); d > surfToMesh {
			surfToMesh = d
		}
	}
	return meshToSurf, surfToMesh
}

// SymmetricHausdorff returns max(meshToSurf, surfToMesh).
func SymmetricHausdorff(tris []Triangle, im *img.Image, tr *edt.Transform) float64 {
	a, b := Hausdorff(tris, im, tr)
	return math.Max(a, b)
}

// SurfaceDistance estimates the one-sided distance from surface A to
// surface B: the maximum over samples of A's triangles of the distance
// to the nearest triangle of B. Used, e.g., to bound how far smoothing
// displaced a boundary.
func SurfaceDistance(a, b []Triangle) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	lo := a[0].A
	hi := a[0].A
	grow := func(p geom.Vec3) {
		lo = lo.Min(p)
		hi = hi.Max(p)
	}
	for _, t := range append(append([]Triangle(nil), a...), b...) {
		grow(t.A)
		grow(t.B)
		grow(t.C)
	}
	g := newTriGrid(b, lo, hi)
	var worst float64
	for _, t := range a {
		for _, p := range [7]geom.Vec3{
			t.A, t.B, t.C,
			t.A.Lerp(t.B, 0.5), t.B.Lerp(t.C, 0.5), t.C.Lerp(t.A, 0.5),
			t.Centroid(),
		} {
			if d := g.dist(p); d > worst {
				worst = d
			}
		}
	}
	return worst
}
