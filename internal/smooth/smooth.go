// Package smooth implements volume-conserving mesh-boundary smoothing,
// the extension the paper explicitly leaves as future work ("the
// extension of our framework to support the computationally expensive
// step of volume-conserving smoothing ... is left for future work",
// Section 7): CFD applications such as airway modeling want smooth
// boundaries, while FE quality must not be destroyed.
//
// The implementation takes a mutable copy of a mesh snapshot, applies
// Taubin λ|μ smoothing to the boundary vertices, restores the
// enclosed volume exactly by a uniform offset along vertex normals,
// and guards every displacement against element inversion.
package smooth

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
)

// Mesh is a mutable copy of a snapshot for smoothing: it embeds its
// own MeshSnapshot, whose Verts the smoothing moves and whose Cells and
// Labels it shares with the source, so a smoothed mesh goes wherever a
// snapshot goes (meshio's writers, fem, render).
type Mesh struct {
	*core.MeshSnapshot

	// Boundary structure.
	BoundaryTris  [][3]int32 // outward-oriented boundary triangles
	boundaryVert  []bool
	vertNeighbors [][]int32 // boundary-edge adjacency for boundary verts
	vertCells     [][]int32 // incident cells per vertex (boundary verts only)
}

// outward orders the face opposite vertex f (MeshSnapshot.Neighbors'
// face f) so its normal points away from vertex f — out of a
// positively oriented cell.
var outward = [4][3]int{{1, 2, 3}, {0, 3, 2}, {0, 1, 3}, {0, 2, 1}}

// New prepares a snapshot for smoothing. Its boundary is the
// snapshot's: faces without a neighbor, and faces between cells of
// different tissues (emitted once, from the lower-indexed cell). The
// vertex positions are copied, so s itself is never modified.
func New(s *core.MeshSnapshot) *Mesh {
	copied := *s
	copied.Verts = slices.Clone(s.Verts)
	m := &Mesh{MeshSnapshot: &copied}
	label := func(ci int32) img.Label {
		if s.Labels == nil {
			return 0
		}
		return s.Labels[ci]
	}
	for ci, nb := range s.Neighbors() {
		c := s.Cells[ci]
		for f, other := range nb {
			if other >= 0 && (label(int32(ci)) == label(other) || int32(ci) > other) {
				continue
			}
			o := outward[f]
			m.BoundaryTris = append(m.BoundaryTris, [3]int32{c[o[0]], c[o[1]], c[o[2]]})
		}
	}
	m.buildAdjacency()
	return m
}

// buildAdjacency lists each boundary vertex's neighbors along boundary
// edges in facet order — a fixed order, so the Laplacian averages sum
// the same way on every run — and its incident cells.
func (s *Mesh) buildAdjacency() {
	n := len(s.Verts)
	s.boundaryVert = make([]bool, n)
	s.vertNeighbors = make([][]int32, n)
	addEdge := func(a, b int32) {
		if !slices.Contains(s.vertNeighbors[a], b) {
			s.vertNeighbors[a] = append(s.vertNeighbors[a], b)
		}
	}
	for _, tr := range s.BoundaryTris {
		for i := 0; i < 3; i++ {
			a, b := tr[i], tr[(i+1)%3]
			s.boundaryVert[a] = true
			addEdge(a, b)
			addEdge(b, a)
		}
	}
	s.vertCells = make([][]int32, n)
	for ci, cell := range s.Cells {
		for _, v := range cell {
			if s.boundaryVert[v] {
				s.vertCells[v] = append(s.vertCells[v], int32(ci))
			}
		}
	}
}

// Volume returns the total volume of the tetrahedra.
func (s *Mesh) Volume() float64 {
	var v float64
	for _, c := range s.Cells {
		v += geom.TetraVolume(s.Verts[c[0]], s.Verts[c[1]], s.Verts[c[2]], s.Verts[c[3]])
	}
	return v
}

// EnclosedVolume integrates the boundary surface (divergence theorem);
// equal to Volume for a watertight extraction.
func (s *Mesh) EnclosedVolume() float64 {
	var v float64
	for _, tr := range s.BoundaryTris {
		a, b, c := s.Verts[tr[0]], s.Verts[tr[1]], s.Verts[tr[2]]
		v += a.Dot(b.Cross(c)) / 6
	}
	return math.Abs(v)
}

// MinCellVolume returns the smallest signed cell volume (negative
// means an inverted element).
func (s *Mesh) MinCellVolume() float64 {
	min := math.Inf(1)
	for _, c := range s.Cells {
		if v := geom.TetraVolume(s.Verts[c[0]], s.Verts[c[1]], s.Verts[c[2]], s.Verts[c[3]]); v < min {
			min = v
		}
	}
	return min
}

// Stats reports what a smoothing pass did.
type Stats struct {
	Iterations    int
	Moved         int // vertex displacements applied
	Reverted      int // displacements undone by the inversion guard
	VolumeBefore  float64
	VolumeAfter   float64
	RoughnessDrop float64 // relative decrease of the surface roughness energy
}

// Taubin runs `iters` λ|μ smoothing passes over the boundary vertices
// with inversion guarding, then restores the enclosed volume by a
// uniform normal offset (itself guarded). Typical parameters:
// λ=0.5, μ=-0.53.
func (s *Mesh) Taubin(iters int, lambda, mu float64) Stats {
	st := Stats{Iterations: iters, VolumeBefore: s.Volume()}
	r0 := s.roughness()

	for it := 0; it < iters; it++ {
		st.apply(s, lambda)
		st.apply(s, mu)
	}

	// Volume conservation: offset boundary vertices along their
	// area-weighted normals to undo the shrink/growth.
	s.restoreVolume(st.VolumeBefore, &st)

	st.VolumeAfter = s.Volume()
	if r1 := s.roughness(); r0 > 0 {
		st.RoughnessDrop = (r0 - r1) / r0
	}
	return st
}

// apply performs one Laplacian step scaled by k over all boundary
// vertices (Jacobi style: displacements computed from the current
// positions, then applied with the inversion guard).
func (st *Stats) apply(s *Mesh, k float64) {
	disp := make([]geom.Vec3, len(s.Verts))
	for v := range s.Verts {
		if !s.boundaryVert[v] || len(s.vertNeighbors[v]) == 0 {
			continue
		}
		var avg geom.Vec3
		for _, u := range s.vertNeighbors[v] {
			avg = avg.Add(s.Verts[u])
		}
		avg = avg.Scale(1 / float64(len(s.vertNeighbors[v])))
		disp[v] = avg.Sub(s.Verts[v]).Scale(k)
	}
	for v := range s.Verts {
		if disp[v] == (geom.Vec3{}) {
			continue
		}
		if s.tryMove(int32(v), disp[v]) {
			st.Moved++
		} else {
			st.Reverted++
		}
	}
}

// tryMove displaces vertex v, halving the step until no incident cell
// inverts (up to 4 halvings; reports failure if even the smallest step
// inverts something).
func (s *Mesh) tryMove(v int32, d geom.Vec3) bool {
	old := s.Verts[v]
	for attempt := 0; attempt < 4; attempt++ {
		s.Verts[v] = old.Add(d)
		if s.incidentOK(v) {
			return true
		}
		d = d.Scale(0.5)
	}
	s.Verts[v] = old
	return false
}

func (s *Mesh) incidentOK(v int32) bool {
	const eps = 1e-12
	for _, ci := range s.vertCells[v] {
		c := s.Cells[ci]
		if geom.TetraVolume(s.Verts[c[0]], s.Verts[c[1]], s.Verts[c[2]], s.Verts[c[3]]) <= eps {
			return false
		}
	}
	return true
}

// restoreVolume offsets boundary vertices along area-weighted normals
// so the total volume returns to target (one Newton step suffices for
// the small volume drift of Taubin smoothing; iterate three times for
// safety).
func (s *Mesh) restoreVolume(target float64, st *Stats) {
	for iter := 0; iter < 3; iter++ {
		cur := s.Volume()
		dv := target - cur
		if math.Abs(dv) < 1e-9*math.Abs(target) {
			return
		}
		normals := s.vertexNormals()
		var area float64
		for _, tr := range s.BoundaryTris {
			a, b, c := s.Verts[tr[0]], s.Verts[tr[1]], s.Verts[tr[2]]
			area += b.Sub(a).Cross(c.Sub(a)).Norm() / 2
		}
		if area == 0 {
			return
		}
		// dV ≈ area * offset.
		offset := dv / area
		for v := range s.Verts {
			if !s.boundaryVert[v] || normals[v] == (geom.Vec3{}) {
				continue
			}
			if s.tryMove(int32(v), normals[v].Scale(offset)) {
				st.Moved++
			} else {
				st.Reverted++
			}
		}
	}
}

// vertexNormals returns area-weighted outward unit normals for
// boundary vertices.
func (s *Mesh) vertexNormals() []geom.Vec3 {
	normals := make([]geom.Vec3, len(s.Verts))
	for _, tr := range s.BoundaryTris {
		a, b, c := s.Verts[tr[0]], s.Verts[tr[1]], s.Verts[tr[2]]
		n := b.Sub(a).Cross(c.Sub(a)) // outward, area-weighted
		for _, v := range tr {
			normals[v] = normals[v].Add(n)
		}
	}
	for v := range normals {
		if normals[v] != (geom.Vec3{}) {
			normals[v] = normals[v].Normalize()
		}
	}
	return normals
}

// roughness is a surface energy: the sum of squared deviations of each
// boundary vertex from its neighbors' centroid. Smoothing should
// reduce it.
func (s *Mesh) roughness() float64 {
	var e float64
	for v := range s.Verts {
		if !s.boundaryVert[v] || len(s.vertNeighbors[v]) == 0 {
			continue
		}
		var avg geom.Vec3
		for _, u := range s.vertNeighbors[v] {
			avg = avg.Add(s.Verts[u])
		}
		avg = avg.Scale(1 / float64(len(s.vertNeighbors[v])))
		e += avg.Sub(s.Verts[v]).Norm2()
	}
	return e
}
