package meshio

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/img"
	"repro/internal/quality"
)

// boundaryTrianglesOracle is the handle-based boundary extraction that
// read the kernel mesh before MeshSnapshot.Neighbors became the one
// facet pass, kept as the reference the snapshot's boundary is checked
// against. It emits an interface facet from the side earlier in Final,
// by position: handles do not follow Final's order, since a
// single-owner mesh reuses the slots of killed cells.
func boundaryTrianglesOracle(m *delaunay.Mesh, final []arena.Handle, im *img.Image) []quality.Triangle {
	type entry struct {
		label img.Label
		pos   int
	}
	inFinal := make(map[arena.Handle]entry, len(final))
	for i, h := range final {
		inFinal[h] = entry{im.LabelAt(m.Cells.At(h).CC), i}
	}
	var out []quality.Triangle
	for i, h := range final {
		c := m.Cells.At(h)
		myLabel := inFinal[h].label
		for f := 0; f < 4; f++ {
			nb := c.Neighbor(f)
			other, ok := inFinal[nb]
			boundary := !ok || other.label != myLabel
			if !boundary {
				continue
			}
			// Emit interface facets once (from the side earlier in
			// Final); facets to non-final cells are emitted
			// unconditionally.
			if ok && other.pos < i {
				continue
			}
			face := c.Face(f)
			out = append(out, quality.Triangle{
				A: m.Pos(face[0]), B: m.Pos(face[1]), C: m.Pos(face[2]),
			})
		}
	}
	return out
}

// triKey reduces a triangle to an order-independent identity so two
// boundary extractions can be compared as multisets (they agree on the
// facet set, not necessarily on emission order or winding start).
func triKey(tr quality.Triangle) [9]float64 {
	pts := [3][3]float64{
		{tr.A.X, tr.A.Y, tr.A.Z},
		{tr.B.X, tr.B.Y, tr.B.Z},
		{tr.C.X, tr.C.Y, tr.C.Z},
	}
	sort.Slice(pts[:], func(i, j int) bool {
		for k := 0; k < 3; k++ {
			if pts[i][k] != pts[j][k] {
				return pts[i][k] < pts[j][k]
			}
		}
		return false
	})
	var k [9]float64
	for i, p := range pts {
		copy(k[3*i:], p[:])
	}
	return k
}

// faceVerts returns the sorted vertices of face f of cell c: the three
// other than its vertex f.
func faceVerts(c [4]int32, f int) [3]int32 {
	var k [3]int32
	n := 0
	for j, v := range c {
		if j != f {
			k[n] = v
			n++
		}
	}
	slices.Sort(k[:])
	return k
}

// TestSnapshotBoundaryParity checks the snapshot's one facet pass on a
// single-tissue mesh and on a five-tissue one, serial and parallel:
// Neighbors is a symmetric pairing of faces, BoundaryTriangles is the
// oracle's facet multiset (its exact sequence and OFF bytes at W=1,
// where Final is in handle order), and ExteriorVertices is the vertex
// set of the neighborless faces.
func TestSnapshotBoundaryParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		im      *img.Image
		workers int
	}{
		{"sphere-20 W=1", img.SpherePhantom(20), 1},
		{"knee-48 W=1", img.KneePhantom(48, 48, 48), 1},
		{"knee-48 W=2", img.KneePhantom(48, 48, 48), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Run(core.Config{Image: tc.im, Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			snap := res.Snapshot()
			nb := snap.Neighbors()

			exterior, interior := 0, 0
			var extVerts []int32
			for ci, row := range nb {
				for f, other := range row {
					if other < 0 {
						exterior++
						k := faceVerts(snap.Cells[ci], f)
						extVerts = append(extVerts, k[:]...)
						continue
					}
					if int(other) < ci {
						interior++
					}
					back := slices.Index(nb[other][:], int32(ci))
					if back < 0 || faceVerts(snap.Cells[other], back) != faceVerts(snap.Cells[ci], f) {
						t.Fatalf("cell %d face %d sees cell %d, which does not see it back across that face", ci, f, other)
					}
				}
			}
			if exterior+2*interior != 4*len(snap.Cells) {
				t.Fatalf("%d exterior + 2×%d interior facets, want 4×%d cells", exterior, interior, len(snap.Cells))
			}

			got := snap.BoundaryTriangles()
			want := boundaryTrianglesOracle(res.Mesh, res.Final, tc.im)
			count := make(map[[9]float64]int, len(want))
			for _, tr := range want {
				count[triKey(tr)]++
			}
			for _, tr := range got {
				count[triKey(tr)]--
			}
			for _, n := range count {
				if n != 0 {
					t.Fatalf("boundary facet multisets differ: snapshot %d, oracle %d triangles", len(got), len(want))
				}
			}
			if tc.workers == 1 {
				var fromSnap, fromOracle bytes.Buffer
				if err := WriteOFFSnapshot(&fromSnap, snap); err != nil {
					t.Fatal(err)
				}
				if err := WriteOFF(&fromOracle, want); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) || !bytes.Equal(fromSnap.Bytes(), fromOracle.Bytes()) {
					t.Fatalf("W=1 boundary differs from the oracle's in order (OFF %d vs %d bytes)", fromSnap.Len(), fromOracle.Len())
				}
			}

			slices.Sort(extVerts)
			verts, labels := snap.ExteriorVertices()
			if !slices.Equal(verts, slices.Compact(extVerts)) {
				t.Fatalf("ExteriorVertices has %d vertices, the neighborless faces %d", len(verts), len(slices.Compact(extVerts)))
			}
			for _, v := range verts {
				if len(labels[v]) == 0 {
					t.Fatalf("exterior vertex %d has no tissue label", v)
				}
			}
		})
	}
}
