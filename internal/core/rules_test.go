package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/img"
)

// TestR4Fires drives the interior quality rule. R4 is mostly subsumed
// by R2 (an interior tetrahedron with a bad radius-edge ratio usually
// has a circumball large enough to reach the surface) and by R5; it
// only fires deep inside a large object with a dense size function,
// where quality cascades happen far from ∂O.
func TestR4Fires(t *testing.T) {
	im := img.SpherePhantom(96)
	res, err := Run(Config{
		Image:           im,
		Workers:         1,
		SizeFunc:        func(geom.Vec3) float64 { return 3 },
		LivelockTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RuleCounts[R4] == 0 {
		t.Errorf("R4 never fired at coarse delta (rules: %v)", res.Stats.RuleCounts)
	}
	// The bound must still hold.
	worst := 0.0
	for _, h := range res.Final {
		c := res.Mesh.Cells.At(h)
		if r := geom.RadiusEdgeRatio(res.Mesh.Pos(c.V[0]), res.Mesh.Pos(c.V[1]),
			res.Mesh.Pos(c.V[2]), res.Mesh.Pos(c.V[3])); r > worst {
			worst = r
		}
	}
	if worst > 2.5 {
		t.Errorf("worst ratio %.3f with coarse delta", worst)
	}
}

func TestRuleStrings(t *testing.T) {
	want := map[Rule]string{
		RuleNone: "none", R1: "R1", R2: "R2", R3: "R3", R4: "R4", R5: "R5", R6: "R6",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Rule(%d).String() = %q", r, r.String())
		}
	}
}

// TestOversubscription runs with more workers than GOMAXPROCS (the
// Table 5 configuration) and checks nothing deadlocks or degrades into
// livelock.
func TestOversubscription(t *testing.T) {
	im := img.SpherePhantom(24)
	res, err := Run(Config{
		Image:           im,
		Workers:         16,
		LivelockTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Livelocked {
		t.Fatal("livelocked under oversubscription")
	}
	if res.Elements() == 0 {
		t.Fatal("empty mesh")
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineRecorded(t *testing.T) {
	im := img.SpherePhantom(40)
	res, err := Run(Config{
		Image:           im,
		Workers:         4,
		TimelineSample:  2 * time.Millisecond,
		LivelockTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Skip("run finished before the first sample (very fast host)")
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].OverheadNs < res.Timeline[i-1].OverheadNs {
			t.Fatal("overhead timeline not monotone")
		}
	}
}

// TestKneeAndHeadNeckPhantoms exercises the remaining Table 3 inputs
// end to end.
func TestKneeAndHeadNeckPhantoms(t *testing.T) {
	for name, im := range map[string]*img.Image{
		"knee":     img.KneePhantom(40, 40, 40),
		"headneck": img.HeadNeckPhantom(40, 40, 40),
	} {
		res, err := Run(Config{Image: im, Workers: 2, LivelockTimeout: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Elements() == 0 {
			t.Fatalf("%s: empty mesh", name)
		}
		if err := res.Mesh.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestEDTTimeReported checks the pre-processing accounting the paper
// includes in its timings ("the execution time reported for PI2M
// incorporates the ... Euclidean distance transform").
func TestEDTTimeReported(t *testing.T) {
	im := img.SpherePhantom(32)
	res, err := Run(Config{Image: im, Workers: 1, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.EDTTime <= 0 {
		t.Error("EDT time not recorded")
	}
	if res.TotalTime < res.EDTTime {
		t.Error("total time excludes the EDT")
	}
	if res.RefineTime <= 0 || res.TotalTime < res.RefineTime {
		t.Error("refine time inconsistent")
	}
}

// TestPoorCounterBalanced verifies the Section 4.4 counter protocol:
// every counted poor element is released exactly once (by its popper
// or its invalidator), so all counters drain to zero at termination.
func TestPoorCounterBalanced(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := Run(Config{
			Image:           img.AbdominalPhantom(40, 40, 28),
			Workers:         workers,
			LivelockTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DanglingPoorCount != 0 {
			t.Errorf("workers=%d: dangling poor count %d", workers, res.Stats.DanglingPoorCount)
		}
	}
}

func TestElementsPerSecond(t *testing.T) {
	r := &Result{}
	if r.ElementsPerSecond() != 0 {
		t.Error("zero-time rate should be 0")
	}
}

// TestDeltaFuncDensifiesSurface checks the variable surface density
// (Section 2's curvature-adaptive sampling): a δ function that
// sharpens near one hemisphere must put more isosurface samples there.
func TestDeltaFuncDensifiesSurface(t *testing.T) {
	im := img.SpherePhantom(48)
	focus := geom.Vec3{X: 24, Y: 24, Z: 40} // top of the sphere
	res, err := Run(Config{
		Image:   im,
		Workers: 2,
		Delta:   4,
		DeltaFunc: func(p geom.Vec3) float64 {
			if p.Dist(focus) < 12 {
				return 1 // clamped to Delta/4
			}
			return 4
		},
		LivelockTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Run(Config{Image: im, Workers: 2, Delta: 4, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements() <= uniform.Elements() {
		t.Errorf("focused delta did not densify: %d vs %d", res.Elements(), uniform.Elements())
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxElementsStopsEarly checks the element budget: the run ends
// once the cap is reached, with a valid (if unfinished) mesh.
func TestMaxElementsStopsEarly(t *testing.T) {
	im := img.SpherePhantom(64)
	full, err := Run(Config{Image: im, Workers: 2, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	cap := full.Elements() / 4
	capped, err := Run(Config{
		Image:           im,
		Workers:         2,
		MaxElements:     cap,
		LivelockTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The cap is checked after each commit, so slight overshoot by the
	// last concurrent operations is expected — but not runaway.
	if capped.Elements() < cap/2 || capped.Elements() > full.Elements()/2 {
		t.Errorf("capped run produced %d elements (cap %d, full %d)",
			capped.Elements(), cap, full.Elements())
	}
	if err := capped.Mesh.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleWorkerDeterminism: with one worker the pipeline is fully
// deterministic (seeded walk randomness, sequential commits), so two
// identical runs must produce identical meshes — a regression canary
// for accidental nondeterminism.
func TestSingleWorkerDeterminism(t *testing.T) {
	im := img.KneePhantom(40, 40, 40)
	run := func() (int, int, int64) {
		res, err := Run(Config{Image: im, Workers: 1, LivelockTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elements(), res.Mesh.NumVerts(), res.Stats.Inserts
	}
	e1, v1, i1 := run()
	e2, v2, i2 := run()
	if e1 != e2 || v1 != v2 || i1 != i2 {
		t.Errorf("nondeterministic single-worker run: (%d,%d,%d) vs (%d,%d,%d)",
			e1, v1, i1, e2, v2, i2)
	}
}

// TestVesselPhantomThinStructures meshes the branching vessel tree:
// the thin tubes must survive into the final mesh as a connected,
// watertight tissue (fidelity on the anatomy the paper's intro
// motivates: blood-flow simulation).
func TestVesselPhantomThinStructures(t *testing.T) {
	im := img.VesselPhantom(64)
	res, err := Run(Config{Image: im, Workers: 2, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatal(err)
	}
	vessel := 0
	for _, h := range res.Final {
		if im.LabelAt(res.Mesh.Cells.At(h).CC) == 2 {
			vessel++
		}
	}
	if vessel < 50 {
		t.Fatalf("vessel tree nearly lost: %d cells", vessel)
	}
	t.Logf("vessel cells: %d of %d", vessel, res.Elements())
}

// TestProgressCallback checks the sampler delivers monotone snapshots.
func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	_, err := Run(Config{
		Image:          img.AbdominalPhantom(72, 72, 48),
		Workers:        2,
		progressSample: time.Millisecond,
		Progress: func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
		LivelockTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Skip("run finished before the first sample")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Operations < snaps[i-1].Operations {
			t.Fatal("operations went backward")
		}
		if snaps[i].Wall < snaps[i-1].Wall {
			t.Fatal("wall time went backward")
		}
	}
	if last := snaps[len(snaps)-1]; last.Elements <= 0 || last.Operations <= 0 {
		t.Errorf("empty final snapshot: %+v", last)
	}
}
