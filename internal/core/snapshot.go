package core

import (
	"repro/internal/arena"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
)

// MeshSnapshot is a compact, self-contained copy of a run's final
// mesh: the vertex positions used by the final cells (compacted in
// first-seen order, exactly the order meshio.WriteVTK emits), the
// cells as indices into that vertex slice, the per-cell tissue labels,
// and the run summary. Unlike a Result — whose Mesh and Final handles
// are recycled by the session's next Run — a snapshot owns its memory
// outright and stays valid forever, so it can cross a pool lease
// boundary: take it inside the lease window, release the session, and
// encode or analyze at leisure.
//
// A snapshot is immutable after creation and safe to share across
// goroutines; encoders must treat it as read-only.
type MeshSnapshot struct {
	// Verts holds the positions of every vertex referenced by a final
	// cell, compacted in first-seen order over Final.
	Verts []geom.Vec3
	// Cells indexes each final tetrahedron's four vertices into Verts,
	// preserving the cell's positive orientation.
	Cells [][4]int32
	// Labels carries each cell's tissue label (the label at its
	// circumcenter); nil when the run had no image attached.
	Labels []img.Label
	// Summary is the run digest captured with the geometry.
	Summary RunSummary
}

// Snapshot copies the final mesh out of the Result into an
// independent MeshSnapshot. It must be called while the Result is
// still valid — before the next Run on the owning session — and is
// the serving layer's bridge out of the lease window.
func (r *Result) Snapshot() *MeshSnapshot {
	s := SnapshotOf(r.Mesh, r.Final, r.Config.Image)
	s.Summary = r.Summary()
	return s
}

// SnapshotOf copies the final cells of m into a MeshSnapshot with a
// zero Summary: the one place the first-seen vertex compaction every
// encoder's output order rests on is written down. Cells carry the
// label at their circumcenter when im is non-nil.
func SnapshotOf(m *delaunay.Mesh, final []arena.Handle, im *img.Image) *MeshSnapshot {
	s := &MeshSnapshot{Cells: make([][4]int32, len(final))}
	if im != nil {
		s.Labels = make([]img.Label, len(final))
	}
	index := make(map[arena.Handle]int32, 4*len(final))
	for i, h := range final {
		c := m.Cells.At(h)
		for j := 0; j < 4; j++ {
			vh := c.V[j]
			idx, ok := index[vh]
			if !ok {
				idx = int32(len(s.Verts))
				index[vh] = idx
				s.Verts = append(s.Verts, m.Pos(vh))
			}
			s.Cells[i][j] = idx
		}
		if im != nil {
			s.Labels[i] = im.LabelAt(c.CC)
		}
	}
	return s
}

// Elements returns the number of tetrahedra in the snapshot.
func (s *MeshSnapshot) Elements() int { return len(s.Cells) }

// SizeBytes estimates the retained size of the snapshot's geometry
// payload (vertices, cells, labels) — what a serving layer's
// snapshot-size metric observes.
func (s *MeshSnapshot) SizeBytes() int {
	return 24*len(s.Verts) + 16*len(s.Cells) + len(s.Labels)
}

// label returns cell i's tissue label (0 when the run had no image).
func (s *MeshSnapshot) label(i int32) img.Label {
	if s.Labels == nil {
		return 0
	}
	return s.Labels[i]
}

// snapFaces mirrors delaunay's face table: face i is the face opposite
// vertex i, ordered so that Orient3D(face, V[i]) > 0 for a positively
// oriented cell.
var snapFaces = [4][3]int{{1, 3, 2}, {0, 2, 3}, {0, 3, 1}, {0, 1, 2}}

// ExteriorVertices returns the vertices on the snapshot's exterior
// surface — vertices of facets owned by exactly one cell (the domain
// boundary ∂O; tissue-interface facets between two cells are interior
// and excluded) — along with, for each such vertex, the set of tissue
// labels of the boundary cells it touches. verts is sorted ascending
// and duplicate-free; labels[v] lists each label at most once, in
// first-seen order.
//
// This is the selection surface for boundary conditions: a Dirichlet
// clause constrains exterior vertices, optionally filtered by the
// tissue they bound or by a geometric predicate on their position.
func (s *MeshSnapshot) ExteriorVertices() (verts []int32, labels map[int32][]img.Label) {
	type fkey [3]int32
	canon := func(a, b, c int32) fkey {
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		return fkey{a, b, c}
	}
	// Count face owners; faces seen once are exterior.
	owners := make(map[fkey]int32, 2*len(s.Cells))
	for ci, c := range s.Cells {
		for f := 0; f < 4; f++ {
			k := canon(c[snapFaces[f][0]], c[snapFaces[f][1]], c[snapFaces[f][2]])
			if _, ok := owners[k]; ok {
				owners[k] = -1 // shared: interior
			} else {
				owners[k] = int32(ci)
			}
		}
	}
	labels = make(map[int32][]img.Label)
	seen := make(map[int32]bool)
	for ci, c := range s.Cells {
		for f := 0; f < 4; f++ {
			k := canon(c[snapFaces[f][0]], c[snapFaces[f][1]], c[snapFaces[f][2]])
			if owners[k] != int32(ci) {
				continue
			}
			l := s.label(int32(ci))
			for _, j := range snapFaces[f] {
				v := c[j]
				if !seen[v] {
					seen[v] = true
					verts = append(verts, v)
				}
				if !containsLabel(labels[v], l) {
					labels[v] = append(labels[v], l)
				}
			}
		}
	}
	sortInt32s(verts)
	return verts, labels
}

func containsLabel(ls []img.Label, l img.Label) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

func sortInt32s(v []int32) {
	// Insertion-free stdlib sort without pulling in a generics dep here.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// BoundaryTriangles extracts the boundary facets of the snapshot: a
// facet belonging to exactly one cell, or shared by two cells of
// different tissues. It is the off-lease equivalent of
// quality.BoundaryTriangles — same triangle set (interface facets
// emitted once), derived purely from the copied geometry, so OFF
// encoding needs neither the mesh nor the lease.
func (s *MeshSnapshot) BoundaryTriangles() []quality.Triangle {
	type fkey [3]int32
	canon := func(a, b, c int32) fkey {
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		return fkey{a, b, c}
	}
	// Pass 1: adjacency by canonical face key ([2]int32{owner, other};
	// -1 marks an unshared slot).
	adj := make(map[fkey][2]int32, 2*len(s.Cells))
	for ci, c := range s.Cells {
		for f := 0; f < 4; f++ {
			k := canon(c[snapFaces[f][0]], c[snapFaces[f][1]], c[snapFaces[f][2]])
			if p, ok := adj[k]; ok {
				p[1] = int32(ci)
				adj[k] = p
			} else {
				adj[k] = [2]int32{int32(ci), -1}
			}
		}
	}
	// Pass 2: emit in cell order, faces 0-3, keeping each cell's face
	// orientation; interface facets come once, from the lower-indexed
	// side.
	var out []quality.Triangle
	for ci, c := range s.Cells {
		for f := 0; f < 4; f++ {
			k := canon(c[snapFaces[f][0]], c[snapFaces[f][1]], c[snapFaces[f][2]])
			p := adj[k]
			other := p[0]
			if other == int32(ci) {
				other = p[1]
			}
			if other >= 0 && (s.label(int32(ci)) == s.label(other) || int32(ci) > other) {
				continue
			}
			out = append(out, quality.Triangle{
				A: s.Verts[c[snapFaces[f][0]]],
				B: s.Verts[c[snapFaces[f][1]]],
				C: s.Verts[c[snapFaces[f][2]]],
			})
		}
	}
	return out
}
