package meshio

import (
	"io"
	"os"
	"slices"
	"strconv"

	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
)

// This file is the package's one text encoder. Every exported writer
// appends its whole output to a []byte through the functions below and
// hands it to its io.Writer in a single Write, so a failed encode
// writes nothing. Numbers go through strconv's append forms — no fmt,
// no allocation per element — and match fmt's %g and %d byte for byte:
// the parity and fuzz tests pin them to a fmt reference kept there.

const vtkHeader = "# vtk DataFile Version 3.0\nPI2M tetrahedral mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n"

// appendFloat appends v as fmt's %g prints it.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendPoint appends "x y z\n".
func appendPoint(b []byte, x, y, z float64) []byte {
	b = append(appendFloat(b, x), ' ')
	b = append(appendFloat(b, y), ' ')
	return append(appendFloat(b, z), '\n')
}

// appendInt appends n in decimal, as fmt's %d prints it.
func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// appendIndices appends "<arity> i j k...\n": a VTK cell, an OFF face.
func appendIndices(b []byte, idx []int32) []byte {
	b = appendInt(b, len(idx))
	for _, i := range idx {
		b = appendInt(append(b, ' '), int(i))
	}
	return append(b, '\n')
}

// appendRepeat appends n copies of s by doubling what it has already
// written: the CELL_TYPES section is one constant line per cell.
func appendRepeat(b []byte, s string, n int) []byte {
	start, end := len(b), len(b)+n*len(s)
	b = slices.Grow(b, end-start)[:end]
	for filled := copy(b[start:], s); start+filled < end; {
		filled += copy(b[start+filled:], b[start:start+filled])
	}
	return b
}

// appendVTK appends an indexed tetrahedral mesh as a legacy-ASCII VTK
// unstructured grid; non-nil labels follow as cell data.
func appendVTK(b []byte, verts []geom.Vec3, cells [][4]int32, labels []img.Label) []byte {
	// Typical: 3×17 digits a point; 4×4 digits, a type, a label a cell.
	b = slices.Grow(b, len(vtkHeader)+128+56*len(verts)+32*len(cells))
	b = append(b, vtkHeader...)
	b = appendInt(append(b, "POINTS "...), len(verts))
	b = append(b, " double\n"...)
	for _, p := range verts {
		b = appendPoint(b, p.X, p.Y, p.Z)
	}
	b = appendInt(append(b, "CELLS "...), len(cells))
	b = append(appendInt(append(b, ' '), 5*len(cells)), '\n')
	for i := range cells {
		b = appendIndices(b, cells[i][:])
	}
	b = append(appendInt(append(b, "CELL_TYPES "...), len(cells)), '\n')
	b = appendRepeat(b, "10\n", len(cells)) // VTK_TETRA
	if labels != nil {
		b = appendInt(append(b, "CELL_DATA "...), len(cells))
		b = append(b, "\nSCALARS tissue int 1\nLOOKUP_TABLE default\n"...)
		for _, l := range labels {
			b = append(appendInt(b, int(l)), '\n')
		}
	}
	return b
}

// appendField appends a POINT_DATA section of one scalar per vertex.
func appendField(b []byte, name string, u []float64) []byte {
	b = appendInt(append(b, "POINT_DATA "...), len(u))
	b = append(append(append(b, "\nSCALARS "...), name...), " double 1\nLOOKUP_TABLE default\n"...)
	for _, v := range u {
		b = append(appendFloat(b, v), '\n')
	}
	return b
}

// appendOFF appends triangles as an OFF surface mesh, sharing a vertex
// between them only on exact position equality.
func appendOFF(b []byte, tris []quality.Triangle) []byte {
	index := make(map[geom.Vec3]int32)
	var pts []geom.Vec3
	faces := make([][3]int32, len(tris))
	for i, t := range tris {
		for j, p := range [3]geom.Vec3{t.A, t.B, t.C} {
			id, ok := index[p]
			if !ok {
				id = int32(len(pts))
				index[p] = id
				pts = append(pts, p)
			}
			faces[i][j] = id
		}
	}
	b = appendInt(append(b, "OFF\n"...), len(pts))
	b = append(appendInt(append(b, ' '), len(faces)), " 0\n"...)
	for _, p := range pts {
		b = appendPoint(b, p.X, p.Y, p.Z)
	}
	for i := range faces {
		b = appendIndices(b, faces[i][:])
	}
	return b
}

// writeOnce hands a finished encoding to w in one Write.
func writeOnce(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

// writeFile is writeOnce to a named file, synced before it is closed.
func writeFile(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := writeOnce(f, b); err != nil {
		return err
	}
	return f.Sync()
}
