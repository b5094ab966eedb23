package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/cm"
	"repro/internal/delaunay"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/img"
)

// TestSoakLargeMultiTissue is the flagship integration test: a
// 128x128x84 six-tissue phantom meshed with 8 workers, then every
// verifiable guarantee checked at once — Validate's invariants, the
// boundary-angle tail, and every tissue present. Skipped under -short.
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

	if res.Status != StatusCompleted {
		t.Fatalf("status %v (%s), want completed", res.Status, res.Reason)
	}
	if res.Elements() < 10000 {
		t.Fatalf("implausibly small mesh: %d", res.Elements())
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}

	snap := res.Snapshot()
	// The 30-degree boundary-angle bound holds except where the δ/4
	// sparsity gate (the termination safeguard for voxelized, non-
	// smooth isosurfaces) suppresses an R3 insertion; such facets must
	// be a sub-percent tail. (The paper's own Table 6 reports sub-30°
	// minima for CGAL as well.)
	tris := snap.BoundaryTriangles()
	small, least := 0, 180.0
	for _, tr := range tris {
		a := geom.MinTriangleAngle(tr.A, tr.B, tr.C)
		least = min(least, a)
		if a < 30 {
			small++
		}
	}
	if frac := float64(small) / float64(len(tris)); frac > 0.01 {
		t.Errorf("%.2f%% of boundary facets below 30° (min %.1f°)", 100*frac, least)
	}
	t.Logf("boundary angle: min %.1f°, %d/%d facets below 30°", least, small, len(tris))

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
}

// TestSoakFaultStorm drives a full refinement through a combined fault
// storm — random CAS-lock denials, dropped work-steals, and delayed
// commits — and requires the run to complete with a valid watertight
// mesh and the bookkeeping balanced.
func TestSoakFaultStorm(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed: 42,
		Rates: map[faultinject.Point]float64{
			faultinject.LockDeny:    0.02,
			faultinject.DropSteal:   0.25,
			faultinject.CommitDelay: 0.002,
		},
		// Clear the bootstrap: the virtual-box corners insert through the
		// same kernel, and a denied corner is a (correctly reported)
		// construction error, not the refinement storm under test.
		After: map[faultinject.Point]int64{faultinject.LockDeny: 500},
		Delay: 200 * time.Microsecond,
	})
	defer faultinject.Enable(inj)()

	im := img.SpherePhantom(32)
	res, err := Run(Config{Image: im, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("status=%v denials=%d rollbacks=%d elements=%d",
		res.Status, inj.Fired(faultinject.LockDeny), res.Stats.Rollbacks, res.Elements())

	if inj.Fired(faultinject.LockDeny) == 0 {
		t.Fatal("storm denied no lock; the test exercised nothing")
	}
	if res.Status != StatusCompleted || res.Err() != nil {
		t.Errorf("status %v, Err() = %v; want completed", res.Status, res.Err())
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

// TestStallAborts arms a total lock-denial storm, so no operation can
// ever commit, under every contention manager at one and four workers:
// the always-armed watchdog must end each run with one structured
// livelock abort — partial but valid, its Err naming the stall — rather
// than a hang, a crash, or a rescue that hides the stall. A zero Config
// arms it at one minute.
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
				t.Logf("status=%v reason=%q", res.Status, res.Reason)

				if res.Status != StatusAborted {
					t.Fatalf("status %v, want aborted", res.Status)
				}
				if !res.Livelocked {
					t.Error("Livelocked not set after the stall")
				}
				if !strings.HasPrefix(res.Reason, "livelock:") {
					t.Errorf("reason %q, want the livelock", res.Reason)
				}
				if res.Err() == nil || !strings.Contains(res.Err().Error(), res.Reason) {
					t.Errorf("Err() = %v, want it to carry the reason", res.Err())
				}
				if err := res.Validate(); err != nil {
					t.Fatalf("partial mesh: %v", err)
				}
			})
		}
	}
}

// panicSource is one place a run can panic: the kernel, through an
// injected WorkerPanic, or a user callback that panics while armed.
type panicSource struct {
	name, value string // the panic value Reason must carry
	cfg         Config
	fault       bool
}

// TestPanicBudgetAborts: the kernel's panic budget is zero — the first
// injected WorkerPanic aborts the run (see checkPanicAborts).
func TestPanicBudgetAborts(t *testing.T) {
	checkPanicAborts(t, nil, []panicSource{{"WorkerPanic", "injected", Config{}, true}})
}

// TestCallbackPanicsRecovered: a panicking SizeFunc, DeltaFunc or
// Progress callback is recovered into an aborted run, never a panic out
// of Run (see checkPanicAborts).
func TestCallbackPanicsRecovered(t *testing.T) {
	var armed atomic.Bool
	size := func(geom.Vec3) float64 {
		if armed.Load() {
			panic("size function bug")
		}
		return noSizeBound
	}
	delta := func(geom.Vec3) float64 {
		if armed.Load() {
			panic("delta function bug")
		}
		return math.Inf(1) // clamped to Delta
	}
	progress := func(Progress) {
		if armed.Load() {
			panic("progress bug")
		}
	}
	checkPanicAborts(t, &armed, []panicSource{
		{"SizeFunc", "size function bug", Config{SizeFunc: size}, false},
		{"DeltaFunc", "delta function bug", Config{DeltaFunc: delta}, false},
		{"Progress", "progress bug", Config{Progress: progress, progressSample: time.Millisecond}, false},
	})
}

// checkPanicAborts runs each source at W ∈ {1, 4}: the panic ends the
// run aborted with the panic in its Reason, a valid partial mesh and no
// vertex left locked; it never escapes Run, and nothing rescues the
// run. The session stays usable: rerun without the fault, a
// single-worker session writes the bytes a fresh one writes. armed, if
// not nil, is set for the faulty run only.
func checkPanicAborts(t *testing.T, armed *atomic.Bool, sources []panicSource) {
	t.Helper()
	arm := func(on bool) {
		if armed != nil {
			armed.Store(on)
		}
	}
	im := img.SpherePhantom(40)
	for _, src := range sources {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/W%d", src.name, workers), func(t *testing.T) {
				cfg := src.cfg
				cfg.Workers = workers
				s, err := NewSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()

				arm(!src.fault)
				restore := func() {}
				if src.fault {
					restore = faultinject.Enable(faultinject.New(faultinject.Config{
						Seed:     5,
						Rates:    map[faultinject.Point]float64{faultinject.WorkerPanic: 1},
						After:    map[faultinject.Point]int64{faultinject.WorkerPanic: 20}, // clear the bootstrap
						MaxFires: map[faultinject.Point]int64{faultinject.WorkerPanic: 1},
					}))
				}
				res, err := s.Run(context.Background(), im)
				arm(false)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("reason=%q elements=%d", res.Reason, res.Elements())
				if res.Status != StatusAborted || !strings.Contains(res.Reason, src.value) {
					t.Fatalf("status %v, reason %q; want aborted naming %q", res.Status, res.Reason, src.value)
				}
				if err := res.Validate(); err != nil {
					t.Fatalf("partial mesh: %v", err)
				}
				res.Mesh.LiveVerts(func(h arena.Handle, v *delaunay.Vertex) {
					if v.LockedBy() >= 0 {
						t.Errorf("vertex %d still locked by worker %d", h, v.LockedBy())
					}
				})

				again, err := s.Run(context.Background(), im)
				if err != nil || again.Status != StatusCompleted {
					t.Fatalf("rerun after the abort: %v, %v", again.Status, err)
				}
				if err := again.Validate(); err != nil {
					t.Errorf("rerun: %v", err)
				}
				if workers > 1 {
					return // speculative parallel output is not bit-reproducible
				}
				warm := geometryBytes(t, again.Snapshot())
				fresh, err := Run(Config{Image: im, Workers: 1, SizeFunc: cfg.SizeFunc, DeltaFunc: cfg.DeltaFunc})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(warm, geometryBytes(t, fresh.Snapshot())) {
					t.Error("the rerun after an abort differs from a fresh session's run")
				}
			})
		}
	}
}

// TestBootstrapPanicIsRunError: a panic while the session builds its
// virtual-box triangulation — cold, or warm over a new box — is Run's
// error, and the next Run builds afresh and completes.
func TestBootstrapPanicIsRunError(t *testing.T) {
	s, err := NewSession(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, im := range []*img.Image{img.SpherePhantom(16), img.SpherePhantom(20)} {
		restore := faultinject.Enable(faultinject.New(faultinject.Config{
			Rates:    map[faultinject.Point]float64{faultinject.WorkerPanic: 1},
			MaxFires: map[faultinject.Point]int64{faultinject.WorkerPanic: 1},
		}))
		_, err := s.Run(context.Background(), im)
		restore()
		if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("run %d: err = %v, want the bootstrap panic", i, err)
		}
		res, err := s.Run(context.Background(), im)
		if err != nil || res.Status != StatusCompleted {
			t.Fatalf("run %d after the panic: %v, %v", i, res.Status, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// geometryBytes encodes a snapshot's vertices, cells and labels.
func geometryBytes(t *testing.T, s *MeshSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range []any{s.Verts, s.Cells, s.Labels} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestContextCancellation cancels a sizable run from its first progress
// sample and requires a clean partial result: aborted status, an Err
// wrapping context.Canceled, and a structurally valid mesh of whatever
// committed before the cut.
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
	if !errors.Is(res.Err(), context.Canceled) || !strings.HasPrefix(res.Reason, "canceled:") {
		t.Errorf("Err() = %v, reason %q; want the cancellation", res.Err(), res.Reason)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("partial mesh: %v", err)
	}
}

// TestFirstCauseNamesTheAbort: once the engine has aborted a run, a
// cancellation that lands later does not rename it — Err wraps the
// stall, not context.Canceled, so a caller does not read an engine
// abort as its own.
func TestFirstCauseNamesTheAbort(t *testing.T) {
	cfg, err := Config{Image: img.SpherePhantom(8), Workers: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r := newRefiner(context.Background(), cfg)
	r.coord = cm.NewCoordinator(cfg.Workers)
	r.cm = cfg.newCM(r.coord)
	r.bal = cfg.newBalancer()

	stall := errors.New("livelock: no operation committed")
	r.abortRun(stall)
	r.abortRun(fmt.Errorf("canceled: %w", context.Canceled))
	var res Result
	r.collect(&res)
	if res.Status != StatusAborted || res.Reason != stall.Error() {
		t.Fatalf("status %v, reason %q; want aborted by the stall", res.Status, res.Reason)
	}
	if !errors.Is(res.Err(), stall) || errors.Is(res.Err(), context.Canceled) {
		t.Errorf("Err() = %v; want it to wrap the stall and not the cancellation", res.Err())
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
	if err := res.Validate(); err != nil {
		t.Fatalf("partial mesh: %v", err)
	}
}
