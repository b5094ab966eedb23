package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/cm"
	"repro/internal/delaunay"
	"repro/internal/faultinject"
	"repro/internal/img"
)

// TestRolledBackRemovalIsRequeued drives the Conflict arm of doRemoval
// on a two-worker (shared) mesh: a removal denied its locks must go
// back to the bottom of the thread's stack — behind the work already
// queued, not lost, and without allocating — and succeed when retried.
func TestRolledBackRemovalIsRequeued(t *testing.T) {
	im := img.SpherePhantom(24)
	s, err := NewSession(Config{Workers: 2, ContentionManager: "aggressive", LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), im)
	if err != nil || res.Status != StatusCompleted {
		t.Fatalf("run: %v, %v", res.Status, err)
	}

	// A refiner over the finished run's state, as Session.run builds it.
	cfg := res.Config
	r := &Refiner{cfg: cfg, im: im, edt: s.edtTr, mesh: s.mesh,
		isoGrid: s.isoGrid, ccGrid: s.ccGrid, threads: s.threads}
	r.coord = cm.NewCoordinator(cfg.Workers)
	r.cmSlot.Store(&cmEntry{name: cfg.ContentionManager, m: cfg.newCM(r.coord)})
	r.cmBaseNs = make([]atomic.Int64, cfg.Workers)
	r.bal = cfg.newBalancer()

	// Three surviving circumcenters: one to roll back, two queued ahead.
	var victims []arena.Handle
	r.mesh.LiveVerts(func(h arena.Handle, v *delaunay.Vertex) {
		if v.Kind == delaunay.KindCircum && len(victims) < 3 {
			victims = append(victims, h)
		}
	})
	if len(victims) < 3 {
		t.Fatalf("only %d live circumcenters to remove", len(victims))
	}
	th := r.threads[1]
	th.removals = append(th.removals[:0], victims[1], victims[2])
	vh := victims[0]

	inj := faultinject.New(faultinject.Config{
		Seed:  5,
		Rates: map[faultinject.Point]float64{faultinject.LockDeny: 1},
	})
	restore := faultinject.Enable(inj)
	rollbacks := th.w.Stats.Rollbacks
	r.doRemoval(th, vh)
	if th.w.Stats.Rollbacks != rollbacks+1 || r.mesh.Verts.At(vh).Dead() {
		restore()
		t.Fatalf("denied removal: %d rollbacks, vertex dead = %v", th.w.Stats.Rollbacks-rollbacks, r.mesh.Verts.At(vh).Dead())
	}
	if len(th.removals) != 3 || th.removals[0] != vh {
		restore()
		t.Fatalf("removals after the rollback = %v, want %d at the bottom of three", th.removals, vh)
	}
	// The arm, repeated: the slice has its capacity, nothing allocates.
	allocs := testing.AllocsPerRun(100, func() {
		th.removals = append(th.removals[:0], victims[1], victims[2])
		r.doRemoval(th, vh)
	})
	restore()
	if allocs != 0 {
		t.Errorf("a rolled-back removal allocates %.0f times", allocs)
	}

	// Retried once the two queued ahead of it are done. (A retry may
	// still come back Failed — a cospherical link — which keeps the
	// vertex; what must not happen is that it never reaches the kernel.)
	attempts := func() int64 { return th.w.Stats.Removals + th.w.Stats.FailedOps }
	before := attempts()
	for i := 0; len(th.removals) > 0; i++ {
		if i == 3 {
			t.Fatalf("removals still queued after three iterations: %v", th.removals)
		}
		if !r.iterate(th) {
			t.Fatal("iterate ended the run")
		}
	}
	if n := attempts() - before; n != 3 {
		t.Errorf("%d of the 3 queued removals reached the kernel", n)
	}
	if !r.mesh.Verts.At(vh).Dead() && th.w.Stats.FailedOps == 0 {
		t.Errorf("vertex %d survived a retry that did not fail", vh)
	}
	if err := r.mesh.Check(); err != nil {
		t.Fatal(err)
	}
}
