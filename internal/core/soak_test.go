package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
)

// TestSoakLargeMultiTissue is the flagship integration test: a
// 128x128x84 six-tissue phantom meshed with 8 workers, then every
// verifiable guarantee checked at once — structural mesh invariants,
// the quality bounds, watertight per-tissue topology, bookkeeping
// balance, and the fidelity of every tissue's recovered interface.
// Skipped under -short.
func TestSoakLargeMultiTissue(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	im := img.AbdominalPhantom(128, 128, 84)
	res, err := Run(Config{Image: im, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("elements=%d inserts=%d removals=%d rollbacks=%d time=%v",
		res.Elements(), res.Stats.Inserts, res.Stats.Removals,
		res.Stats.Rollbacks, res.TotalTime.Round(time.Millisecond))

	if res.Livelocked {
		t.Fatal("livelocked")
	}
	if res.Elements() < 10000 {
		t.Fatalf("implausibly small mesh: %d", res.Elements())
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("mesh invariants: %v", err)
	}
	if res.Stats.DanglingPoorCount != 0 {
		t.Errorf("dangling poor count %d", res.Stats.DanglingPoorCount)
	}

	snap := res.Snapshot()
	q := snap.Quality()
	if q.MaxRadiusEdge > 2.5 {
		t.Errorf("max radius-edge %v", q.MaxRadiusEdge)
	}
	// The 30-degree boundary-angle bound holds except where the δ/4
	// sparsity gate (the termination safeguard for voxelized, non-
	// smooth isosurfaces) suppresses an R3 insertion; such facets must
	// be a sub-percent tail. (The paper's own Table 6 reports sub-30°
	// minima for CGAL as well.)
	tris := snap.BoundaryTriangles()
	small := 0
	for _, tr := range tris {
		if geom.MinTriangleAngle(tr.A, tr.B, tr.C) < 30 {
			small++
		}
	}
	if frac := float64(small) / float64(len(tris)); frac > 0.01 {
		t.Errorf("%.2f%% of boundary facets below 30° (min %.1f°)",
			100*frac, q.MinBoundaryPlanarAngle)
	}
	t.Logf("boundary angle: min %.1f°, %d/%d facets below 30°",
		q.MinBoundaryPlanarAngle, small, len(tris))

	// Every tissue present, each with a meaningful share of elements.
	per := map[img.Label]int{}
	for _, l := range snap.Labels {
		per[l]++
	}
	if len(per) != 6 {
		t.Fatalf("tissues in mesh: %d, want 6", len(per))
	}
	for l, n := range per {
		if n < 20 {
			t.Errorf("tissue %d has only %d elements", l, n)
		}
	}

	// The union of boundary+interface triangles is watertight as a
	// complex away from junction curves; each tissue's own surface
	// (cells of that label vs everything else) must be closed.
	if len(tris) == 0 {
		t.Fatal("no boundary triangles")
	}
	topo := quality.SurfaceTopology(tris)
	if topo.BorderEdges != 0 {
		t.Errorf("boundary complex has %d border edges (holes)", topo.BorderEdges)
	}
}

// hasTransition reports whether the result recorded a transition with
// the given event.
func hasTransition(res *Result, event string) bool {
	for _, tr := range res.Transitions {
		if tr.Event == event {
			return true
		}
	}
	return false
}

// checkMeshIntegrity asserts the invariants that must survive any
// fault: structural mesh validity, balanced poor-element bookkeeping,
// and a watertight boundary complex of whatever was extracted.
func checkMeshIntegrity(t *testing.T, res *Result) {
	t.Helper()
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("mesh invariants: %v", err)
	}
	if res.Stats.DanglingPoorCount != 0 {
		t.Errorf("dangling poor count %d", res.Stats.DanglingPoorCount)
	}
	if res.Elements() == 0 {
		t.Fatal("empty final mesh")
	}
	tris := res.Snapshot().BoundaryTriangles()
	if len(tris) == 0 {
		t.Fatal("no boundary triangles")
	}
	if topo := quality.SurfaceTopology(tris); topo.BorderEdges != 0 {
		t.Errorf("boundary complex has %d border edges (holes)", topo.BorderEdges)
	}
}

// TestSoakFaultStorm drives a full refinement through a combined fault
// storm — random CAS-lock denials, worker panics at the pre-commit
// point, dropped work-steals, and delayed commits — and requires the
// run to finish with a valid watertight mesh, every panic recovered,
// and the bookkeeping balanced.
func TestSoakFaultStorm(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed: 42,
		Rates: map[faultinject.Point]float64{
			faultinject.LockDeny:    0.02,
			faultinject.WorkerPanic: 0.05,
			faultinject.DropSteal:   0.25,
			faultinject.CommitDelay: 0.002,
		},
		MaxFires: map[faultinject.Point]int64{faultinject.WorkerPanic: 10},
		// Clear the bootstrap: the virtual-box corners insert through the
		// same kernel, and a denied corner is a (correctly reported)
		// construction error, not the refinement storm under test.
		After: map[faultinject.Point]int64{
			faultinject.WorkerPanic: 20,
			faultinject.LockDeny:    500,
		},
		Delay: 200 * time.Microsecond,
	})
	defer faultinject.Enable(inj)()

	im := img.SpherePhantom(32)
	res, err := Run(Config{
		Image:       im,
		Workers:     4,
		panicBudget: -1, // the storm may concentrate on one thread
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("status=%v panics=%d dropped=%d denials=%d elements=%d",
		res.Status, res.Stats.RecoveredPanics, res.Stats.DroppedItems,
		inj.Fired(faultinject.LockDeny), res.Elements())

	if fired := inj.Fired(faultinject.WorkerPanic); fired == 0 {
		t.Fatal("storm injected no panics; the test exercised nothing")
	} else if res.Stats.RecoveredPanics != fired {
		t.Errorf("recovered %d panics, injected %d", res.Stats.RecoveredPanics, fired)
	}
	if res.Status != StatusDegraded {
		t.Errorf("status %v, want degraded", res.Status)
	}
	if res.Err() != nil {
		t.Errorf("Err() = %v for a non-aborted run", res.Err())
	}
	checkMeshIntegrity(t, res)
}

// TestStallAborts arms a total lock-denial storm, so no operation can
// ever commit, under every contention manager at one and four workers:
// the always-armed watchdog must end each run with one structured
// livelock abort — partial but valid — rather than a hang, a crash, or
// a rescue that hides the stall. A zero Config arms it at one minute.
func TestStallAborts(t *testing.T) {
	cfg, err := Config{Image: img.SpherePhantom(8)}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LivelockTimeout != time.Minute {
		t.Errorf("default LivelockTimeout = %v, want 1m", cfg.LivelockTimeout)
	}
	for _, name := range []string{"aggressive", "random", "global", "local"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/W%d", name, workers), func(t *testing.T) {
				inj := faultinject.New(faultinject.Config{
					Seed:  3,
					Rates: map[faultinject.Point]float64{faultinject.LockDeny: 1},
					After: map[faultinject.Point]int64{faultinject.LockDeny: 1000},
				})
				defer faultinject.Enable(inj)()

				res, err := Run(Config{
					Image:             img.SpherePhantom(16),
					Workers:           workers,
					ContentionManager: name,
					LivelockTimeout:   150 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("status=%v reason=%q transitions=%+v", res.Status, res.Reason, res.Transitions)

				if res.Status != StatusAborted {
					t.Fatalf("status %v, want aborted", res.Status)
				}
				if !res.Livelocked {
					t.Error("Livelocked not set after the stall")
				}
				if len(res.Transitions) != 1 || res.Transitions[0].Event != "abort" {
					t.Errorf("transitions %+v, want exactly one abort", res.Transitions)
				}
				if res.Err() == nil || !strings.Contains(res.Err().Error(), "livelock") {
					t.Errorf("Err() = %v, want a livelock reason", res.Err())
				}
				if err := res.Mesh.Check(); err != nil {
					t.Fatalf("partial mesh invariants: %v", err)
				}
			})
		}
	}
}

// TestPanicBudgetAborts arms an unbounded panic storm against the
// default per-thread budget: the run must stop with a structured abort
// naming the exhausted budget, not crash.
func TestPanicBudgetAborts(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed:  5,
		Rates: map[faultinject.Point]float64{faultinject.WorkerPanic: 1},
		After: map[faultinject.Point]int64{faultinject.WorkerPanic: 20}, // clear the bootstrap
	})
	defer faultinject.Enable(inj)()

	res, err := Run(Config{
		Image:       img.SpherePhantom(24),
		Workers:     2,
		panicBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusAborted {
		t.Fatalf("status %v, want aborted", res.Status)
	}
	if !strings.Contains(res.Reason, "panic budget") {
		t.Errorf("reason %q does not name the panic budget", res.Reason)
	}
	if res.Stats.RecoveredPanics == 0 {
		t.Error("no recovered panics counted")
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("partial mesh invariants: %v", err)
	}
}

// TestContextCancellation cancels a sizable run from its first progress
// sample and requires a clean partial result: aborted status, the
// cancellation transition and reason, and a structurally valid mesh of
// whatever committed before the cut.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewSession(Config{
		Workers:        2,
		progressSample: 2 * time.Millisecond,
		Progress:       func(Progress) { cancel() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(ctx, img.AbdominalPhantom(64, 64, 42))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("status=%v reason=%q elements=%d", res.Status, res.Reason, res.Elements())

	if res.Status != StatusAborted {
		t.Fatalf("status %v, want aborted", res.Status)
	}
	if !hasTransition(res, "cancel") {
		t.Fatalf("no cancel transition: %+v", res.Transitions)
	}
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "canceled") {
		t.Errorf("Err() = %v, want a cancellation reason", res.Err())
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("partial mesh invariants: %v", err)
	}
}

// TestContextPreCanceled starts the run with an already-canceled
// context: it must return promptly with an aborted partial result.
func TestContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSession(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(ctx, img.SpherePhantom(32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusAborted {
		t.Fatalf("status %v, want aborted", res.Status)
	}
	if err := res.Mesh.Check(); err != nil {
		t.Fatalf("partial mesh invariants: %v", err)
	}
}

// TestCallbackPanicsRecovered supplies user callbacks that panic on
// every call; the run must degrade — infinite size bound, progress
// reporting disabled — and still produce a complete valid mesh.
func TestCallbackPanicsRecovered(t *testing.T) {
	im := img.SpherePhantom(32)
	res, err := Run(Config{
		Image:          im,
		Workers:        2,
		SizeFunc:       func(geom.Vec3) float64 { panic("user size function bug") },
		progressSample: 2 * time.Millisecond,
		Progress:       func(Progress) { panic("user progress bug") },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("status=%v callbackPanics=%d", res.Status, res.Stats.CallbackPanics)

	if res.Stats.CallbackPanics == 0 {
		t.Fatal("no callback panics recorded")
	}
	if res.Status != StatusDegraded {
		t.Errorf("status %v, want degraded", res.Status)
	}
	if !hasTransition(res, "callback-panic") {
		t.Errorf("no callback-panic transition: %+v", res.Transitions)
	}
	checkMeshIntegrity(t, res)
}
