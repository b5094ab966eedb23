package meshio

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
)

func smallMesh(t *testing.T) (*core.Result, *img.Image) {
	t.Helper()
	im := img.SpherePhantom(20)
	res, err := core.Run(core.Config{Image: im, Workers: 1, LivelockTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return res, im
}

func TestWriteVTK(t *testing.T) {
	res, _ := smallMesh(t)
	var buf bytes.Buffer
	if err := WriteVTKSnapshot(&buf, res.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# vtk DataFile Version 3.0") {
		t.Error("missing VTK header")
	}
	for _, want := range []string{"DATASET UNSTRUCTURED_GRID", "POINTS", "CELLS", "CELL_TYPES", "CELL_DATA", "SCALARS tissue"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}

	// Parse counts back and validate index ranges.
	var nPoints, nCells, cellsInts int
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "POINTS ") {
			fmt.Sscanf(line, "POINTS %d double", &nPoints)
		}
		if strings.HasPrefix(line, "CELLS ") {
			fmt.Sscanf(line, "CELLS %d %d", &nCells, &cellsInts)
			for i := 0; i < nCells && sc.Scan(); i++ {
				var k, a, b, c, d int
				if _, err := fmt.Sscanf(sc.Text(), "%d %d %d %d %d", &k, &a, &b, &c, &d); err != nil {
					t.Fatalf("cell line %d: %v", i, err)
				}
				if k != 4 {
					t.Fatalf("cell arity %d", k)
				}
				for _, idx := range []int{a, b, c, d} {
					if idx < 0 || idx >= nPoints {
						t.Fatalf("vertex index %d out of range [0,%d)", idx, nPoints)
					}
				}
			}
		}
	}
	if nCells != res.Elements() {
		t.Errorf("CELLS %d, want %d", nCells, res.Elements())
	}
	if cellsInts != 5*nCells {
		t.Errorf("cells ints %d, want %d", cellsInts, 5*nCells)
	}
}

func TestWriteVTKNoImage(t *testing.T) {
	res, _ := smallMesh(t)
	var buf bytes.Buffer
	if err := WriteVTKSnapshot(&buf, core.SnapshotOf(res.Mesh, res.Final, nil)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "CELL_DATA") {
		t.Error("cell data emitted without an image")
	}
}

func TestWriteOFF(t *testing.T) {
	res, _ := smallMesh(t)
	tris := res.Snapshot().BoundaryTriangles()
	var buf bytes.Buffer
	if err := WriteOFF(&buf, tris); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "OFF" {
		t.Fatal("missing OFF header")
	}
	var nv, nf, ne int
	fmt.Sscanf(lines[1], "%d %d %d", &nv, &nf, &ne)
	if nf != len(tris) {
		t.Errorf("faces %d, want %d", nf, len(tris))
	}
	if len(lines) != 2+nv+nf {
		t.Errorf("line count %d, want %d", len(lines), 2+nv+nf)
	}
	// Faces reference valid vertices.
	for _, l := range lines[2+nv:] {
		var k, a, b, c int
		fmt.Sscanf(l, "%d %d %d %d", &k, &a, &b, &c)
		if k != 3 || a >= nv || b >= nv || c >= nv {
			t.Fatalf("bad face line %q", l)
		}
	}
}

func TestWriteOFFSharedVertices(t *testing.T) {
	// Two triangles sharing an edge: 4 unique vertices.
	tris := []quality.Triangle{
		{A: geom.Vec3{X: 0}, B: geom.Vec3{X: 1}, C: geom.Vec3{Y: 1}},
		{A: geom.Vec3{X: 1}, B: geom.Vec3{Y: 1}, C: geom.Vec3{Z: 1}},
	}
	var buf bytes.Buffer
	if err := WriteOFF(&buf, tris); err != nil {
		t.Fatal(err)
	}
	var nv int
	fmt.Sscanf(strings.Split(buf.String(), "\n")[1], "%d", &nv)
	if nv != 4 {
		t.Errorf("unique vertices = %d, want 4", nv)
	}
}

func TestWriteFiles(t *testing.T) {
	res, _ := smallMesh(t)
	path := t.TempDir() + "/m.off"
	tris := res.Snapshot().BoundaryTriangles()
	if err := WriteOFFFile(path, tris); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteOFF(&want, tris); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("OFF file differs from the streamed encoding (%v)", err)
	}
}
