package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/img"
)

// runSphere meshes a small sphere phantom with the given options.
func runSphere(t *testing.T, n int, workers int, cmName, balName string) *Result {
	t.Helper()
	cfg := Config{
		Image:             img.SpherePhantom(n),
		Workers:           workers,
		ContentionManager: cmName,
		Balancer:          balName,
		LivelockTimeout:   30 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Livelocked {
		t.Fatalf("livelock watchdog fired")
	}
	return res
}

func TestRunSphereSequential(t *testing.T) {
	res := runSphere(t, 24, 1, "local", "hws")
	if res.Elements() == 0 {
		t.Fatal("empty final mesh")
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("final mesh invalid: %v", err)
	}
	if res.Stats.Inserts == 0 {
		t.Error("no insertions recorded")
	}
	// One worker owns the mesh outright: nothing is locked, ever.
	if res.Stats.LocksAcquired != 0 {
		t.Errorf("a single-worker run acquired %d vertex locks", res.Stats.LocksAcquired)
	}
	t.Logf("elements=%d inserts=%d removals=%d rules=%v",
		res.Elements(), res.Stats.Inserts, res.Stats.Removals, res.Stats.RuleCounts)
}

func TestRunSphereParallel(t *testing.T) {
	res := runSphere(t, 32, 4, "local", "hws")
	if res.Elements() == 0 {
		t.Fatal("empty final mesh")
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("final mesh invalid: %v", err)
	}
	if res.Stats.LocksAcquired == 0 {
		t.Error("a four-worker run acquired no vertex locks")
	}
}

func TestFinalMeshInsideObject(t *testing.T) {
	res := runSphere(t, 24, 2, "local", "hws")
	im := res.Config.Image
	for _, h := range res.Final {
		c := res.Mesh.Cells.At(h)
		if c.Dead() {
			t.Fatal("dead cell in final mesh")
		}
		if im.LabelAt(c.CC) == 0 {
			t.Fatal("final cell circumcenter outside object")
		}
	}
}

func TestFinalMeshVolume(t *testing.T) {
	// The union of final cells should approximate the sphere volume.
	n := 32
	res := runSphere(t, n, 2, "local", "hws")
	var vol float64
	for _, h := range res.Final {
		c := res.Mesh.Cells.At(h)
		vol += geom.TetraVolume(
			res.Mesh.Pos(c.V[0]), res.Mesh.Pos(c.V[1]),
			res.Mesh.Pos(c.V[2]), res.Mesh.Pos(c.V[3]))
	}
	r := 0.35 * float64(n)
	want := 4.0 / 3.0 * math.Pi * r * r * r
	if math.Abs(vol-want)/want > 0.15 {
		t.Errorf("mesh volume %.0f vs sphere volume %.0f (>15%% off)", vol, want)
	}
}

func TestRadiusEdgeBound(t *testing.T) {
	res := runSphere(t, 24, 2, "local", "hws")
	worst := 0.0
	for _, h := range res.Final {
		c := res.Mesh.Cells.At(h)
		ratio := geom.RadiusEdgeRatio(
			res.Mesh.Pos(c.V[0]), res.Mesh.Pos(c.V[1]),
			res.Mesh.Pos(c.V[2]), res.Mesh.Pos(c.V[3]))
		if ratio > worst {
			worst = ratio
		}
	}
	// The provable bound is 2; allow numerical slack (paper Section 7:
	// "due to numerical errors, these bounds might be smaller in
	// practice than what theory suggests").
	if worst > 2.5 {
		t.Errorf("worst radius-edge ratio %.3f exceeds bound", worst)
	}
	t.Logf("worst radius-edge ratio: %.3f", worst)
}

func TestDeltaControlsMeshSize(t *testing.T) {
	im := img.SpherePhantom(32)
	small, err := Run(Config{Image: im, Delta: 2, Workers: 2, LivelockTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(Config{Image: im, Delta: 4, Workers: 2, LivelockTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if small.Elements() <= large.Elements() {
		t.Errorf("smaller delta gave %d elements, larger delta %d",
			small.Elements(), large.Elements())
	}
}

func TestSizeFunc(t *testing.T) {
	im := img.SpherePhantom(32)
	uniform, err := Run(Config{
		Image: im, Workers: 2,
		SizeFunc:        func(geom.Vec3) float64 { return 3.0 },
		LivelockTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run(Config{Image: im, Workers: 2, LivelockTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Elements() <= free.Elements() {
		t.Errorf("size function did not densify: %d vs %d", uniform.Elements(), free.Elements())
	}
	if uniform.Stats.RuleCounts[R5] == 0 {
		t.Error("R5 never fired with a finite size function")
	}
}

func TestRemovalsHappen(t *testing.T) {
	res := runSphere(t, 32, 2, "local", "hws")
	if res.Stats.RuleCounts[R6] == 0 {
		t.Skip("no R6 removals on this input (acceptable but unexpected)")
	}
	if res.Stats.Removals != res.Stats.RuleCounts[R6] {
		t.Errorf("Removals=%d R6=%d", res.Stats.Removals, res.Stats.RuleCounts[R6])
	}
}

func TestDisableRemovals(t *testing.T) {
	im := img.SpherePhantom(24)
	res, err := Run(Config{
		Image: im, Workers: 2, DisableRemovals: true,
		LivelockTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Removals != 0 {
		t.Errorf("removals happened despite DisableRemovals: %d", res.Stats.Removals)
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("mesh invalid without removals: %v", err)
	}
}

func TestAllContentionManagers(t *testing.T) {
	for _, name := range []string{"aggressive", "random", "global", "local"} {
		t.Run(name, func(t *testing.T) {
			res := runSphere(t, 20, 3, name, "hws")
			if res.Elements() == 0 {
				t.Fatal("empty mesh")
			}
			if err := res.Mesh.Check(); err != nil {
				t.Fatalf("mesh invalid: %v", err)
			}
		})
	}
}

func TestBothBalancers(t *testing.T) {
	for _, name := range []string{"rws", "hws"} {
		t.Run(name, func(t *testing.T) {
			res := runSphere(t, 20, 3, "local", name)
			if res.Elements() == 0 {
				t.Fatal("empty mesh")
			}
		})
	}
}

func TestMultiLabelRun(t *testing.T) {
	im := img.AbdominalPhantom(32, 32, 24)
	res, err := Run(Config{Image: im, Workers: 4, LivelockTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements() == 0 {
		t.Fatal("empty mesh")
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("mesh invalid: %v", err)
	}
	// The final mesh must contain cells in several tissues.
	labels := map[img.Label]int{}
	for _, h := range res.Final {
		labels[im.LabelAt(res.Mesh.Cells.At(h).CC)]++
	}
	if len(labels) < 3 {
		t.Errorf("final mesh covers only %d labels: %v", len(labels), labels)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := Run(Config{Image: img.SpherePhantom(8), ContentionManager: "bogus"}); err == nil {
		t.Error("bogus CM accepted")
	}
	if _, err := Run(Config{Image: img.SpherePhantom(8), Balancer: "bogus"}); err == nil {
		t.Error("bogus balancer accepted")
	}
	if _, err := Run(Config{Image: img.SpherePhantom(8), Delta: -1}); err == nil {
		t.Error("negative delta accepted")
	}
}

func TestIsoVertexSpacing(t *testing.T) {
	// Committed isosurface samples must respect ~δ spacing (allowing
	// the bounded oversampling of concurrent commits and R3's δ/4).
	res := runSphere(t, 24, 2, "local", "hws")
	var iso []geom.Vec3
	res.Mesh.LiveVerts(func(_ arena.Handle, v *delaunay.Vertex) {
		if v.Kind == delaunay.KindIso {
			iso = append(iso, v.Pos)
		}
	})
	delta := res.Config.Delta
	tooClose := 0
	for i := 0; i < len(iso); i++ {
		for j := i + 1; j < len(iso); j++ {
			if iso[i].Dist(iso[j]) < delta/4 {
				tooClose++
			}
		}
	}
	if tooClose > len(iso)/10 {
		t.Errorf("%d of %d iso samples closer than δ/4", tooClose, len(iso))
	}
}
