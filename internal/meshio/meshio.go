// Package meshio exports PI2M meshes to standard interchange formats:
// legacy VTK unstructured grids (viewable in ParaView, with tissue
// labels as cell data) and OFF surface files for the boundary
// triangulation — the artifacts behind the paper's Figures 7-9.
package meshio

import (
	"io"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/img"
	"repro/internal/quality"
)

// WriteVTK writes the final cells as a legacy-ASCII VTK unstructured
// grid, vertices compacted to those the final cells use, in first-seen
// order. When im is non-nil, each tetrahedron carries its tissue label
// (the label at its circumcenter) as cell data.
func WriteVTK(w io.Writer, m *delaunay.Mesh, final []arena.Handle, im *img.Image) error {
	return WriteVTKSnapshot(w, core.SnapshotOf(m, final, im))
}

// WriteVTKFile is WriteVTK to a named file.
func WriteVTKFile(path string, m *delaunay.Mesh, final []arena.Handle, im *img.Image) error {
	return writeFile(path, AppendVTKSnapshot(nil, core.SnapshotOf(m, final, im)))
}

// WriteOFF writes boundary triangles as an OFF surface mesh. Vertices
// are not deduplicated across triangles beyond exact position
// equality.
func WriteOFF(w io.Writer, tris []quality.Triangle) error { return writeOnce(w, appendOFF(nil, tris)) }

// WriteOFFFile is WriteOFF to a named file.
func WriteOFFFile(path string, tris []quality.Triangle) error {
	return writeFile(path, appendOFF(nil, tris))
}
