package pi2m

import (
	"context"
	"math"
	"testing"
)

// TestPublicAPIRoundtrip exercises the facade end to end: phantom →
// session run → Validate → topology → export → NRRD roundtrip.
func TestPublicAPIRoundtrip(t *testing.T) {
	image := SpherePhantom(24)
	session, err := NewSession(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	result, err := session.Run(context.Background(), image)
	if err != nil || result.Status != StatusCompleted {
		t.Fatalf("%v, %v", result.Status, err)
	}
	if err := result.Validate(); err != nil {
		t.Fatal(err)
	}

	tris := result.Snapshot().BoundaryTriangles()
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
