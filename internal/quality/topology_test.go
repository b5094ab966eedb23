package quality_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
)

// tetraSurface builds the closed surface of a single tetrahedron.
func tetraSurface() []quality.Triangle {
	a := geom.Vec3{X: 0, Y: 0, Z: 0}
	b := geom.Vec3{X: 1, Y: 0, Z: 0}
	c := geom.Vec3{X: 0, Y: 1, Z: 0}
	d := geom.Vec3{X: 0, Y: 0, Z: 1}
	return []quality.Triangle{
		{A: a, B: b, C: c}, {A: a, B: b, C: d},
		{A: a, B: c, C: d}, {A: b, B: c, C: d},
	}
}

func TestSurfaceTopologyTetrahedron(t *testing.T) {
	topo := quality.SurfaceTopology(tetraSurface())
	if topo.Vertices != 4 || topo.Edges != 6 || topo.Faces != 4 {
		t.Fatalf("V,E,F = %d,%d,%d", topo.Vertices, topo.Edges, topo.Faces)
	}
	if topo.Euler != 2 {
		t.Errorf("Euler = %d, want 2 (sphere)", topo.Euler)
	}
	if !topo.Closed || topo.Components != 1 {
		t.Errorf("topology: %v", topo)
	}
}

func TestSurfaceTopologyOpen(t *testing.T) {
	// Drop one face: 3 border edges, still one component.
	topo := quality.SurfaceTopology(tetraSurface()[:3])
	if topo.Closed {
		t.Error("open surface reported closed")
	}
	if topo.BorderEdges != 3 {
		t.Errorf("BorderEdges = %d, want 3", topo.BorderEdges)
	}
}

func TestSurfaceTopologyTwoComponents(t *testing.T) {
	tris := tetraSurface()
	// A second tetra far away.
	for _, tr := range tetraSurface() {
		off := geom.Vec3{X: 10, Y: 10, Z: 10}
		tris = append(tris, quality.Triangle{A: tr.A.Add(off), B: tr.B.Add(off), C: tr.C.Add(off)})
	}
	topo := quality.SurfaceTopology(tris)
	if topo.Components != 2 {
		t.Fatalf("Components = %d, want 2", topo.Components)
	}
	for _, chi := range topo.ComponentEuler {
		if chi != 2 {
			t.Errorf("component Euler = %d, want 2", chi)
		}
	}
}

// TestMeshedSphereIsTopologicalSphere checks Theorem 1's topological
// guarantee end-to-end: the recovered boundary of a meshed ball must
// be a single closed surface with Euler characteristic 2.
func TestMeshedSphereIsTopologicalSphere(t *testing.T) {
	im := img.SpherePhantom(48)
	res, err := core.Run(core.Config{Image: im, Workers: 2, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tris := res.Snapshot().BoundaryTriangles()
	topo := quality.SurfaceTopology(tris)
	if !topo.Closed {
		t.Fatalf("sphere boundary not closed: %v", topo)
	}
	if topo.Components != 1 {
		t.Fatalf("sphere boundary has %d components: %v", topo.Components, topo)
	}
	if topo.Euler != 2 {
		t.Fatalf("sphere boundary Euler = %d, want 2: %v", topo.Euler, topo)
	}
}

// TestMeshedTorusIsTopologicalTorus checks genus recovery: the torus
// phantom's boundary must have Euler characteristic 0.
func TestMeshedTorusIsTopologicalTorus(t *testing.T) {
	im := img.TorusPhantom(48)
	res, err := core.Run(core.Config{Image: im, Workers: 2, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tris := res.Snapshot().BoundaryTriangles()
	topo := quality.SurfaceTopology(tris)
	if !topo.Closed {
		t.Fatalf("torus boundary not closed: %v", topo)
	}
	if topo.Components != 1 {
		t.Fatalf("torus boundary has %d components: %v", topo.Components, topo)
	}
	if topo.Euler != 0 {
		t.Fatalf("torus boundary Euler = %d, want 0 (genus 1): %v", topo.Euler, topo)
	}
}

func TestTopologyString(t *testing.T) {
	s := quality.SurfaceTopology(tetraSurface()).String()
	if s == "" {
		t.Fatal("empty string")
	}
}
