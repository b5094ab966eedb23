package fem

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// Field is a solved scalar field over a mesh, evaluable at arbitrary
// points by barycentric interpolation — probing a simulation result
// along a line, at a sensor location, or onto a voxel grid.
type Field struct {
	mesh *core.MeshSnapshot
	u    []float64

	// Uniform grid over cell bounding boxes for point-in-cell search.
	lo, hi     geom.Vec3
	inv        float64
	nx, ny, nz int
	buckets    [][]int32
}

// NewField indexes the mesh for evaluation. u is per-vertex (as
// produced by System.Solve).
func NewField(mesh *core.MeshSnapshot, u []float64) *Field {
	f := &Field{mesh: mesh, u: u}
	f.lo = mesh.Verts[0]
	f.hi = mesh.Verts[0]
	for _, p := range mesh.Verts {
		f.lo = f.lo.Min(p)
		f.hi = f.hi.Max(p)
	}
	span := f.hi.Sub(f.lo)
	vol := span.X * span.Y * span.Z
	cell := math.Cbrt(vol / (float64(len(mesh.Cells)) + 1))
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1
	}
	f.inv = 1 / cell
	f.nx = int(span.X*f.inv) + 1
	f.ny = int(span.Y*f.inv) + 1
	f.nz = int(span.Z*f.inv) + 1
	f.buckets = make([][]int32, f.nx*f.ny*f.nz)

	for ci, c := range mesh.Cells {
		blo := mesh.Verts[c[0]]
		bhi := blo
		for _, v := range c[1:] {
			blo = blo.Min(mesh.Verts[v])
			bhi = bhi.Max(mesh.Verts[v])
		}
		i0, j0, k0 := f.cellOf(blo)
		i1, j1, k1 := f.cellOf(bhi)
		for k := k0; k <= k1; k++ {
			for j := j0; j <= j1; j++ {
				for i := i0; i <= i1; i++ {
					idx := (k*f.ny+j)*f.nx + i
					f.buckets[idx] = append(f.buckets[idx], int32(ci))
				}
			}
		}
	}
	return f
}

func clampi(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

func (f *Field) cellOf(p geom.Vec3) (int, int, int) {
	d := p.Sub(f.lo)
	return clampi(int(d.X*f.inv), f.nx), clampi(int(d.Y*f.inv), f.ny), clampi(int(d.Z*f.inv), f.nz)
}

// barycentric returns the barycentric coordinates of p in cell ci and
// whether p lies inside (within tol).
func (f *Field) barycentric(ci int32, p geom.Vec3) ([4]float64, bool) {
	c := f.mesh.Cells[ci]
	a := f.mesh.Verts[c[0]]
	b := f.mesh.Verts[c[1]]
	cc := f.mesh.Verts[c[2]]
	d := f.mesh.Verts[c[3]]
	vol := geom.TetraVolume(a, b, cc, d)
	if vol == 0 {
		return [4]float64{}, false
	}
	w := [4]float64{
		geom.TetraVolume(p, b, cc, d) / vol,
		geom.TetraVolume(a, p, cc, d) / vol,
		geom.TetraVolume(a, b, p, d) / vol,
		geom.TetraVolume(a, b, cc, p) / vol,
	}
	const tol = -1e-9
	for _, x := range w {
		if x < tol {
			return w, false
		}
	}
	return w, true
}

// At evaluates the field at p. ok is false when p lies outside the
// mesh.
func (f *Field) At(p geom.Vec3) (float64, bool) {
	i, j, k := f.cellOf(p)
	for _, ci := range f.buckets[(k*f.ny+j)*f.nx+i] {
		if w, in := f.barycentric(ci, p); in {
			c := f.mesh.Cells[ci]
			return w[0]*f.u[c[0]] + w[1]*f.u[c[1]] + w[2]*f.u[c[2]] + w[3]*f.u[c[3]], true
		}
	}
	return 0, false
}

// Sample evaluates the field at n+1 evenly spaced points from a to b;
// points outside the mesh yield NaN.
func (f *Field) Sample(a, b geom.Vec3, n int) []float64 {
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		p := a.Lerp(b, float64(i)/float64(n))
		if v, ok := f.At(p); ok {
			out[i] = v
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// GradientAt returns the (piecewise-constant) gradient of the field in
// the cell containing p. ok is false outside the mesh.
func (f *Field) GradientAt(p geom.Vec3) (geom.Vec3, bool) {
	i, j, k := f.cellOf(p)
	for _, ci := range f.buckets[(k*f.ny+j)*f.nx+i] {
		if _, in := f.barycentric(ci, p); !in {
			continue
		}
		c := f.mesh.Cells[ci]
		var pos [4]geom.Vec3
		for n, v := range c {
			pos[n] = f.mesh.Verts[v]
		}
		vol := geom.TetraVolume(pos[0], pos[1], pos[2], pos[3])
		if vol <= 0 {
			return geom.Vec3{}, false
		}
		grads := p1Gradients(pos, vol)
		var g geom.Vec3
		for n := 0; n < 4; n++ {
			g = g.Add(grads[n].Scale(f.u[c[n]]))
		}
		return g, true
	}
	return geom.Vec3{}, false
}
