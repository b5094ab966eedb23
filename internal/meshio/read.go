package meshio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
)

// ReadVTK parses the legacy-ASCII tetrahedral VTK files this package
// writes (POINTS/CELLS/CELL_TYPES, the optional tissue scalars as cell
// data, and a solved field as point data, which it skips) into a
// snapshot with a zero Summary. A tissue label must fit img.Label.
func ReadVTK(r io.Reader) (*core.MeshSnapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	m := &core.MeshSnapshot{}
	cellData := false // the last data section opened was CELL_DATA

	readN := func(n int, fn func(fields []string) error) error {
		for i := 0; i < n; i++ {
			if !sc.Scan() {
				return fmt.Errorf("vtk: unexpected EOF (wanted %d more lines)", n-i)
			}
			if err := fn(strings.Fields(sc.Text())); err != nil {
				return err
			}
		}
		return nil
	}

	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "POINTS "):
			var n int
			var typ string
			if _, err := fmt.Sscanf(line, "POINTS %d %s", &n, &typ); err != nil {
				return nil, fmt.Errorf("vtk: bad POINTS line %q", line)
			}
			m.Verts = make([]geom.Vec3, 0, clampCap(n))
			if err := readN(n, func(f []string) error {
				var p geom.Vec3
				if len(f) != 3 {
					return fmt.Errorf("vtk: bad point line")
				}
				if _, err := fmt.Sscanf(strings.Join(f, " "), "%g %g %g", &p.X, &p.Y, &p.Z); err != nil {
					return err
				}
				m.Verts = append(m.Verts, p)
				return nil
			}); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "CELLS "):
			var n, ints int
			if _, err := fmt.Sscanf(line, "CELLS %d %d", &n, &ints); err != nil {
				return nil, fmt.Errorf("vtk: bad CELLS line %q", line)
			}
			m.Cells = make([][4]int32, 0, clampCap(n))
			if err := readN(n, func(f []string) error {
				var k int
				var c [4]int32
				if len(f) != 5 {
					return fmt.Errorf("vtk: only tetrahedra are supported")
				}
				if _, err := fmt.Sscanf(strings.Join(f, " "), "%d %d %d %d %d",
					&k, &c[0], &c[1], &c[2], &c[3]); err != nil {
					return err
				}
				if k != 4 {
					return fmt.Errorf("vtk: cell arity %d (want 4)", k)
				}
				for _, v := range c {
					if int(v) >= len(m.Verts) || v < 0 {
						return fmt.Errorf("vtk: vertex index %d out of range", v)
					}
				}
				m.Cells = append(m.Cells, c)
				return nil
			}); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "CELL_DATA"), strings.HasPrefix(line, "POINT_DATA"):
			cellData = strings.HasPrefix(line, "CELL_DATA")
		case strings.HasPrefix(line, "LOOKUP_TABLE") && cellData:
			m.Labels = make([]img.Label, 0, clampCap(len(m.Cells)))
			if err := readN(len(m.Cells), func(f []string) error {
				if len(f) == 0 {
					return fmt.Errorf("vtk: empty label line")
				}
				l, err := strconv.ParseUint(f[0], 10, 8)
				if err != nil {
					return fmt.Errorf("vtk: tissue label %q is not an integer in 0-255", f[0])
				}
				m.Labels = append(m.Labels, img.Label(l))
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m.Verts) == 0 || len(m.Cells) == 0 {
		return nil, fmt.Errorf("vtk: no tetrahedral mesh found")
	}
	if m.Labels != nil && len(m.Labels) != len(m.Cells) {
		return nil, fmt.Errorf("vtk: %d tissue labels for %d cells", len(m.Labels), len(m.Cells))
	}
	return m, nil
}

// clampCap bounds slice preallocation against hostile headers; the
// slices still grow as real data arrives.
func clampCap(n int) int {
	const max = 1 << 20
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}

// ReadVTKFile reads a mesh from a named file.
func ReadVTKFile(path string) (*core.MeshSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadVTK(f)
}
