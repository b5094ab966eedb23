package meshio

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// AppendVTKSnapshot appends a MeshSnapshot to b as a legacy-ASCII VTK
// unstructured grid — byte-identical to WriteVTK over the Result the
// snapshot was taken from — without allocating when b has room. It is
// the serving layer's off-lease encoding path: the snapshot is copied
// out under the session lease, and the text (about 0.25 GB/s) is
// produced after the session has moved on to the next job.
func AppendVTKSnapshot(b []byte, s *core.MeshSnapshot) []byte {
	return appendVTK(b, s.Verts, s.Cells, s.Labels, s.Labels != nil)
}

// WriteVTKSnapshot writes AppendVTKSnapshot's encoding to w.
func WriteVTKSnapshot(w io.Writer, s *core.MeshSnapshot) error {
	return writeOnce(w, AppendVTKSnapshot(nil, s))
}

// RawFromSnapshot adapts a MeshSnapshot to the RawMesh shape the fem
// package consumes. Verts and Cells are shared, not copied — the
// snapshot is immutable and fem only reads them — so building a
// simulation problem from a cached snapshot costs one small labels
// slice, not a geometry copy.
func RawFromSnapshot(s *core.MeshSnapshot) *RawMesh {
	m := &RawMesh{Verts: s.Verts, Cells: s.Cells}
	if s.Labels != nil {
		m.Labels = make([]int, len(s.Labels))
		for i, l := range s.Labels {
			m.Labels[i] = int(l)
		}
	}
	return m
}

// AppendVTKSnapshotField is AppendVTKSnapshot followed by a POINT_DATA
// section carrying one scalar field u (one value per snapshot vertex,
// in vertex order) — the encoding a simulation endpoint returns so the
// solved field can be visualized on the mesh it was computed on.
func AppendVTKSnapshotField(b []byte, s *core.MeshSnapshot, name string, u []float64) ([]byte, error) {
	if len(u) != len(s.Verts) {
		return b, fmt.Errorf("meshio: field %q has %d values for %d vertices", name, len(u), len(s.Verts))
	}
	return appendField(AppendVTKSnapshot(b, s), name, u), nil
}

// WriteVTKSnapshotField writes AppendVTKSnapshotField's encoding to w.
func WriteVTKSnapshotField(w io.Writer, s *core.MeshSnapshot, name string, u []float64) error {
	b, err := AppendVTKSnapshotField(nil, s, name, u)
	if err != nil {
		return err
	}
	return writeOnce(w, b)
}

// AppendOFFSnapshot appends the snapshot's boundary triangulation as
// an OFF surface mesh, extracting the boundary from the copied geometry
// (MeshSnapshot.BoundaryTriangles) — no mesh or lease required.
func AppendOFFSnapshot(b []byte, s *core.MeshSnapshot) []byte {
	return appendOFF(b, s.BoundaryTriangles())
}

// WriteOFFSnapshot writes AppendOFFSnapshot's encoding to w.
func WriteOFFSnapshot(w io.Writer, s *core.MeshSnapshot) error {
	return writeOnce(w, AppendOFFSnapshot(nil, s))
}
