package pi2m

import (
	"math"
	"testing"
	"time"
)

// TestPublicAPIRoundtrip exercises the facade end to end: phantom →
// run → snapshot quality → topology → export → NRRD roundtrip.
func TestPublicAPIRoundtrip(t *testing.T) {
	image := SpherePhantom(24)
	result, err := Run(Config{Image: image, Workers: 2, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if result.Elements() == 0 {
		t.Fatal("empty mesh")
	}

	mesh := result.Snapshot()
	q := mesh.Quality()
	if q.MaxRadiusEdge > 2.5 {
		t.Errorf("radius-edge %v", q.MaxRadiusEdge)
	}
	tris := mesh.BoundaryTriangles()
	topo := SurfaceTopology(tris)
	if !topo.Closed || topo.Euler != 2 {
		t.Errorf("sphere topology: %v", topo)
	}

	dir := t.TempDir()
	if err := WriteOFFFile(dir+"/m.off", tris); err != nil {
		t.Fatal(err)
	}
	if err := WriteNRRDFile(dir+"/m.nrrd", image); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNRRDFile(dir + "/m.nrrd")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVoxels() != image.NumVoxels() {
		t.Fatal("NRRD roundtrip lost voxels")
	}

	e := result.Energy(DefaultEnergyModel())
	if e.DVFSJoules > e.BusyWaitJoules {
		t.Error("energy model inverted")
	}
}

func TestPublicSizeFunctions(t *testing.T) {
	f := MinSize(UniformSize(5), BallSize(Vec3{X: 0, Y: 0, Z: 0}, 1, 2, 9))
	if got := f(Vec3{X: 0, Y: 0, Z: 0}); got != 2 {
		t.Errorf("composed size at center = %v", got)
	}
	if got := f(Vec3{X: 100, Y: 0, Z: 0}); got != 5 {
		t.Errorf("composed size far away = %v", got)
	}
	if !math.IsInf(MinSize()(Vec3{}), 1) {
		t.Error("empty MinSize")
	}
}
