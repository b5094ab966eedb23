package meshio

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
)

func tetraSnapshot() *core.MeshSnapshot {
	return &core.MeshSnapshot{
		Verts: []geom.Vec3{
			{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1},
		},
		Cells:  [][4]int32{{0, 1, 2, 3}},
		Labels: []img.Label{5},
	}
}

func TestRawRoundtrip(t *testing.T) {
	m := tetraSnapshot()
	var buf bytes.Buffer
	if err := WriteVTKSnapshot(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVTK(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Verts) != 4 || len(got.Cells) != 1 {
		t.Fatalf("got %d verts %d cells", len(got.Verts), len(got.Cells))
	}
	if got.Cells[0] != m.Cells[0] {
		t.Fatalf("cells %v", got.Cells)
	}
	if got.Verts[3] != m.Verts[3] {
		t.Fatalf("verts %v", got.Verts)
	}
	if len(got.Labels) != 1 || got.Labels[0] != 5 {
		t.Fatalf("labels %v", got.Labels)
	}
}

func TestRawNoLabels(t *testing.T) {
	m := tetraSnapshot()
	m.Labels = nil
	var buf bytes.Buffer
	if err := WriteVTKSnapshot(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVTK(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels != nil {
		t.Fatal("phantom labels appeared")
	}
}

// TestReadVTKFieldRoundtrip: the /v1/simulate encoding — a snapshot
// with a solved field as POINT_DATA — reads back to the snapshot's
// geometry and labels; the field's lookup table is not taken for the
// tissue labels.
func TestReadVTKFieldRoundtrip(t *testing.T) {
	res, _ := smallMesh(t)
	snap := res.Snapshot()
	field := make([]float64, len(snap.Verts))
	for i, p := range snap.Verts {
		field[i] = p.X - 2*p.Z
	}
	var buf bytes.Buffer
	if err := WriteVTKSnapshotField(&buf, snap, "u", field); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVTK(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Verts, snap.Verts) || !slices.Equal(got.Cells, snap.Cells) || !slices.Equal(got.Labels, snap.Labels) {
		t.Fatalf("read back %d verts, %d cells, %d labels; wrote %d, %d, %d",
			len(got.Verts), len(got.Cells), len(got.Labels), len(snap.Verts), len(snap.Cells), len(snap.Labels))
	}
}

func TestReadVTKRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"no mesh":    "# vtk DataFile Version 3.0\nASCII\n",
		"bad index":  "POINTS 1 double\n0 0 0\nCELLS 1 5\n4 0 0 0 9\nCELL_TYPES 1\n10\n",
		"non-tetra":  "POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\nCELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n5\n",
		"short cell": "POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\nCELLS 2 10\n4 0 1 2 3\n",
		"label 256":  labelOutOfRange,
		"labels before cells": "POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n" +
			"CELL_DATA 0\nSCALARS tissue int 1\nLOOKUP_TABLE default\nCELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n10\n",
	}
	for name, in := range cases {
		if _, err := ReadVTK(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// labelOutOfRange carries a tissue label img.Label cannot hold.
const labelOutOfRange = "POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\nCELLS 1 5\n4 0 1 2 3\n" +
	"CELL_TYPES 1\n10\nCELL_DATA 1\nSCALARS tissue int 1\nLOOKUP_TABLE default\n256\n"

// TestVTKRoundtripOfRealMesh writes a refined mesh to a file and reads
// it back: vertices, cells and labels must come back exactly.
func TestVTKRoundtripOfRealMesh(t *testing.T) {
	snap := sphereSnapshot(t)
	assertFileRoundtrip(t, snap)
}

// TestSmoothedMeshExport exports a mesh whose vertices were moved off
// the refinement's positions, as a post-processing smoothing pass would
// leave them, and checks that the full-precision coordinates come back
// exactly through a file.
func TestSmoothedMeshExport(t *testing.T) {
	snap := sphereSnapshot(t)
	for i := range snap.Verts {
		f := float64(i)
		snap.Verts[i].X += 1e-3 * math.Sin(f)
		snap.Verts[i].Y += 1e-3 * math.Cos(1.7*f)
		snap.Verts[i].Z += 1e-3 * math.Sin(2.3*f+0.5)
	}
	assertFileRoundtrip(t, snap)
}

func sphereSnapshot(t *testing.T) *core.MeshSnapshot {
	t.Helper()
	res, err := core.Run(core.Config{Image: img.SpherePhantom(24), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	if len(snap.Cells) != res.Elements() {
		t.Fatalf("snapshot cells %d, want %d", len(snap.Cells), res.Elements())
	}
	return snap
}

func assertFileRoundtrip(t *testing.T, snap *core.MeshSnapshot) {
	t.Helper()
	path := t.TempDir() + "/mesh.vtk"
	if err := writeFile(path, AppendVTKSnapshot(nil, snap)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVTKFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Verts, snap.Verts) || !slices.Equal(got.Cells, snap.Cells) || !slices.Equal(got.Labels, snap.Labels) {
		t.Fatalf("read back %d verts, %d cells, %d labels; wrote %d, %d, %d",
			len(got.Verts), len(got.Cells), len(got.Labels), len(snap.Verts), len(snap.Cells), len(snap.Labels))
	}
}
