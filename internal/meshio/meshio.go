// Package meshio exports PI2M meshes to standard interchange formats:
// legacy VTK unstructured grids (viewable in ParaView, with tissue
// labels as cell data) and OFF surface files for the boundary
// triangulation — the artifacts behind the paper's Figures 7-9. Every
// writer and the VTK reader work on core.MeshSnapshot, the one indexed
// mesh type.
package meshio

import (
	"io"

	"repro/internal/quality"
)

// WriteOFF writes boundary triangles as an OFF surface mesh. Vertices
// are not deduplicated across triangles beyond exact position
// equality.
func WriteOFF(w io.Writer, tris []quality.Triangle) error { return writeOnce(w, appendOFF(nil, tris)) }

// WriteOFFFile is WriteOFF to a named file.
func WriteOFFFile(path string, tris []quality.Triangle) error {
	return writeFile(path, appendOFF(nil, tris))
}
