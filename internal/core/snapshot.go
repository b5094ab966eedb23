package core

import (
	"slices"

	"repro/internal/arena"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
)

// MeshSnapshot is the indexed tetrahedral mesh every consumer after
// the Delaunay kernel reads: quality, I/O, smoothing, FEM and
// rendering. It holds the vertex positions used by the final cells
// (compacted in first-seen order), the cells as indices into that
// vertex slice, the per-cell tissue labels, and the run summary.
// Unlike a Result — whose Mesh and Final handles are recycled by the
// session's next Run — a snapshot owns its memory outright and stays
// valid forever, so it can cross a pool lease boundary: take it inside
// the lease window, release the session, and encode or analyze at
// leisure.
//
// A snapshot taken from a run is immutable and safe to share across
// goroutines; readers must treat it as read-only.
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
// zero Summary: the one extraction from a kernel mesh, and the one
// place the first-seen vertex compaction every encoder's output order
// rests on is written down. Cells carry the label at their
// circumcenter when im is non-nil.
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

// Neighbors is the snapshot's one adjacency pass: for each cell i and
// face f (the face opposite the cell's vertex f), the index of the
// cell across that face, or -1 when the face lies on the exterior
// surface. On a conforming mesh the relation is symmetric. Every
// boundary view — BoundaryTriangles, ExteriorVertices, smoothing's
// boundary — derives from it.
func (s *MeshSnapshot) Neighbors() [][4]int32 {
	nb := make([][4]int32, len(s.Cells))
	// open holds each face seen once so far, keyed by its sorted
	// vertices, as 4·cell + face; the second sighting pairs and drops it.
	open := make(map[[3]int32]int, len(s.Cells))
	for ci, c := range s.Cells {
		for f, fv := range snapFaces {
			k := [3]int32{c[fv[0]], c[fv[1]], c[fv[2]]}
			slices.Sort(k[:])
			slot, ok := open[k]
			if !ok {
				open[k] = 4*ci + f
				nb[ci][f] = -1
				continue
			}
			delete(open, k)
			nb[ci][f] = int32(slot / 4)
			nb[slot/4][slot%4] = int32(ci)
		}
	}
	return nb
}

// ExteriorVertices returns the vertices on the snapshot's exterior
// surface — vertices of faces without a neighbor (the domain boundary
// ∂O; tissue-interface facets between two cells are interior and
// excluded) — along with, for each such vertex, the set of tissue
// labels of the boundary cells it touches. verts is sorted ascending
// and duplicate-free; labels[v] lists each label at most once, in
// first-seen order.
//
// This is the selection surface for boundary conditions: a Dirichlet
// clause constrains exterior vertices, optionally filtered by the
// tissue they bound or by a geometric predicate on their position.
func (s *MeshSnapshot) ExteriorVertices() (verts []int32, labels map[int32][]img.Label) {
	labels = make(map[int32][]img.Label)
	for ci, nb := range s.Neighbors() {
		l := s.label(int32(ci))
		for f, other := range nb {
			if other >= 0 {
				continue
			}
			for _, j := range snapFaces[f] {
				v := s.Cells[ci][j]
				ls, seen := labels[v]
				if !seen {
					verts = append(verts, v)
				}
				if !slices.Contains(ls, l) {
					labels[v] = append(ls, l)
				}
			}
		}
	}
	slices.Sort(verts)
	return verts, labels
}

// BoundaryTriangles extracts the boundary facets of the snapshot: a
// face without a neighbor, or shared by two cells of different
// tissues. Facets come in cell order, faces 0-3, each oriented as its
// cell sees it; an interface facet comes once, from its lower-indexed
// cell.
func (s *MeshSnapshot) BoundaryTriangles() []quality.Triangle {
	var out []quality.Triangle
	for ci, nb := range s.Neighbors() {
		c := s.Cells[ci]
		for f, other := range nb {
			if other >= 0 && (s.label(int32(ci)) == s.label(other) || int32(ci) > other) {
				continue
			}
			fv := snapFaces[f]
			out = append(out, quality.Triangle{
				A: s.Verts[c[fv[0]]], B: s.Verts[c[fv[1]]], C: s.Verts[c[fv[2]]],
			})
		}
	}
	return out
}

// Quality evaluates the paper's element-quality statistics (Table 6's
// radius-edge, dihedral and boundary planar angle columns) over the
// snapshot.
func (s *MeshSnapshot) Quality() quality.Stats {
	return quality.Evaluate(s.Verts, s.Cells, s.BoundaryTriangles())
}
