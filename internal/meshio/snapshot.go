package meshio

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// AppendVTKSnapshot appends a MeshSnapshot to b as a legacy-ASCII VTK
// unstructured grid, with the tissue labels as cell data when the
// snapshot has them, without allocating when b has room. It is the
// serving layer's off-lease encoding path: the snapshot is copied out
// under the session lease, and the text (about 0.25 GB/s) is produced
// after the session has moved on to the next job.
func AppendVTKSnapshot(b []byte, s *core.MeshSnapshot) []byte {
	return appendVTK(b, s.Verts, s.Cells, s.Labels)
}

// WriteVTKSnapshot writes AppendVTKSnapshot's encoding to w.
func WriteVTKSnapshot(w io.Writer, s *core.MeshSnapshot) error {
	return writeOnce(w, AppendVTKSnapshot(nil, s))
}

// RawFromSnapshot returns s. It remains only because bench/trace.go
// still calls it; every other caller passes the snapshot itself, and
// it goes once that file does too.
func RawFromSnapshot(s *core.MeshSnapshot) *core.MeshSnapshot { return s }

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

// AppendOFFSnapshot appends the snapshot's boundary triangulation
// (MeshSnapshot.BoundaryTriangles) as an OFF surface mesh — no kernel
// mesh or lease required.
func AppendOFFSnapshot(b []byte, s *core.MeshSnapshot) []byte {
	return appendOFF(b, s.BoundaryTriangles())
}

// WriteOFFSnapshot writes AppendOFFSnapshot's encoding to w.
func WriteOFFSnapshot(w io.Writer, s *core.MeshSnapshot) error {
	return writeOnce(w, AppendOFFSnapshot(nil, s))
}
