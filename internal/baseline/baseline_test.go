package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/img"
)

func TestSeqMeshSphere(t *testing.T) {
	im := img.SpherePhantom(24)
	res, err := SeqMesh(im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements() == 0 {
		t.Fatal("empty mesh")
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("mesh invalid: %v", err)
	}
	if res.Inserts == 0 {
		t.Error("no insertions")
	}
	if res.MeshTime <= 0 || res.TotalTime < res.MeshTime {
		t.Error("timing bookkeeping wrong")
	}
}

func TestSeqMeshQualityMatchesPI2M(t *testing.T) {
	im := img.SpherePhantom(24)
	seq, err := SeqMesh(im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Run(core.Config{Image: im, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sq := core.SnapshotOf(seq.Mesh, seq.Final, im).Quality()
	pq := par.Quality()
	if sq.MaxRadiusEdge > 2.5 || pq.MaxRadiusEdge > 2.5 {
		t.Errorf("radius-edge bounds: seq %v, pi2m %v", sq.MaxRadiusEdge, pq.MaxRadiusEdge)
	}
	// Comparable mesh sizes (same δ and rules).
	ratio := float64(seq.Elements()) / float64(par.Elements())
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("mesh sizes diverge: seq %d vs pi2m %d", seq.Elements(), par.Elements())
	}
}

func TestPLCMeshFillsVolume(t *testing.T) {
	im := img.SpherePhantom(24)
	// Boundary from a PI2M run, exactly like the paper feeds TetGen.
	par, err := core.Run(core.Config{Image: im, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tris := par.Snapshot().BoundaryTriangles()
	res, err := PLCMesh(im, tris, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements() == 0 {
		t.Fatal("empty PLC mesh")
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("mesh invalid: %v", err)
	}
	s := core.SnapshotOf(res.Mesh, res.Final, im).Quality()
	if s.MaxRadiusEdge > 2.5 {
		t.Errorf("PLC mesh radius-edge = %v", s.MaxRadiusEdge)
	}
}

func TestPLCMeshEmptyInput(t *testing.T) {
	im := img.SpherePhantom(16)
	res, err := PLCMesh(im, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With no PLC vertices the volume is still filled against the
	// voxel object (quality rules only).
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("mesh invalid: %v", err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	im := img.SpherePhantom(16)
	o := Options{}.withDefaults(im)
	if o.Delta != 2*im.MinSpacing() {
		t.Errorf("Delta default = %v", o.Delta)
	}
	if o.MaxRadiusEdge != 2 || o.MinFacetAngle != 30 {
		t.Error("quality defaults wrong")
	}
}

func TestSizeBoundDensifies(t *testing.T) {
	im := img.SpherePhantom(24)
	coarse, err := SeqMesh(im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := SeqMesh(im, Options{SizeBound: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Elements() <= coarse.Elements() {
		t.Errorf("size bound did not densify: %d vs %d", fine.Elements(), coarse.Elements())
	}
}
