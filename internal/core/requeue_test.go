package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/cm"
	"repro/internal/delaunay"
	"repro/internal/faultinject"
	"repro/internal/img"
)

// refinerOver returns a refiner over the state a finished run of s
// left, as Session.run builds one, for driving its arms directly.
func refinerOver(s *Session, res *Result) *Refiner {
	r := newRefiner(nil, res.Config)
	r.edt, r.mesh, r.isoGrid, r.ccGrid, r.threads = s.edtTr, s.mesh, s.isoGrid, s.ccGrid, s.threads
	r.coord = cm.NewCoordinator(r.cfg.Workers)
	r.cm = r.cfg.newCM(r.coord)
	r.bal = r.cfg.newBalancer()
	return r
}

// TestRolledBackRemovalIsRequeued drives the Conflict arm of doRemoval
// on a two-worker (shared) mesh: a removal denied its locks must go
// back to the bottom of the thread's stack — behind the work already
// queued, not lost, and without allocating — and succeed when retried.
func TestRolledBackRemovalIsRequeued(t *testing.T) {
	im := img.SpherePhantom(24)
	s, err := NewSession(Config{Workers: 2, ContentionManager: "aggressive"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), im)
	if err != nil || res.Status != StatusCompleted {
		t.Fatalf("run: %v, %v", res.Status, err)
	}

	r := refinerOver(s, res)

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

// TestRollbackEscalation checks when a rolled-back thread consults the
// contention manager: the rule itself on synthetic times, then its
// wiring into the Conflict and commit arms of a two-worker refiner.
func TestRollbackEscalation(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	const held = 100 * time.Microsecond

	var s rollbackStreak
	if !s.rollback(at(0)) {
		t.Fatal("the first rollback did not consult the manager")
	}
	s.consulted(at(0), held) // parked until 100 µs
	for _, us := range []int{101, 150, 199} {
		if s.rollback(at(us)) {
			t.Fatalf("a rollback at %d µs, %d µs into retrying, consulted within the last hold %v", us, us-100, held)
		}
	}
	if !s.rollback(at(200)) {
		t.Fatal("a streak that retried for the last hold did not consult")
	}
	s.consulted(at(200), held) // parked until 300 µs
	long := s
	if !long.rollback(at(450)) {
		t.Fatal("without a commit, 150 µs of retrying did not consult")
	}
	s.commit()
	if s.rollback(at(450)) {
		t.Fatal("a commit did not end the streak: its next rollback consulted")
	}
	if s.rollback(at(549)) || !s.rollback(at(550)) {
		t.Fatal("the streak a commit started does not consult after the last hold")
	}
	s.consulted(at(550), 0)
	for _, us := range []int{550, 551, 552} {
		if !s.rollback(at(us)) {
			t.Fatalf("after a zero hold, the rollback at %d µs did not consult", us)
		}
		s.consulted(at(us), 0)
	}
	s.commit()
	if !s.rollback(at(600)) {
		t.Fatal("after a zero hold, a new streak's first rollback did not consult")
	}

	t.Run("wiring", func(t *testing.T) {
		im := img.SpherePhantom(24)
		ss, err := NewSession(Config{Workers: 2, ContentionManager: "aggressive"})
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		res, err := ss.Run(context.Background(), im)
		if err != nil || res.Status != StatusCompleted {
			t.Fatalf("run: %v, %v", res.Status, err)
		}
		r := refinerOver(ss, res)
		mgr := &holdingCM{hold: time.Second}
		r.cm = mgr

		var victims []arena.Handle
		r.mesh.LiveVerts(func(h arena.Handle, v *delaunay.Vertex) {
			if v.Kind == delaunay.KindCircum {
				victims = append(victims, h)
			}
		})
		if len(victims) < 2 {
			t.Fatalf("only %d live circumcenters to remove", len(victims))
		}
		th := r.threads[1]
		th.streak = rollbackStreak{}
		inj := faultinject.New(faultinject.Config{
			Seed:  5,
			Rates: map[faultinject.Point]float64{faultinject.LockDeny: 1},
		})
		deny := func() {
			t.Helper()
			restore := faultinject.Enable(inj)
			defer restore()
			th.removals = th.removals[:0]
			rollbacks := th.w.Stats.Rollbacks
			r.doRemoval(th, victims[0])
			if th.w.Stats.Rollbacks != rollbacks+1 {
				t.Fatal("a denied removal did not roll back")
			}
		}
		want := func(calls int, what string) {
			t.Helper()
			if mgr.calls != calls {
				t.Fatalf("%s: %d consults, want %d", what, mgr.calls, calls)
			}
		}
		deny()
		want(1, "the first rollback")
		deny()
		want(1, "a rollback within the last hold")
		th.streak.start = time.Now().Add(-time.Hour)
		deny()
		want(2, "a rollback an hour into retrying")

		// A committed removal ends the streak: the next rollback starts
		// a new one, within the last hold.
		th.streak.start = time.Now().Add(-time.Hour)
		committed := false
		for _, vh := range victims[1:] {
			th.removals = th.removals[:0]
			removals := th.w.Stats.Removals
			r.doRemoval(th, vh)
			if committed = th.w.Stats.Removals == removals+1; committed {
				break
			}
		}
		if !committed {
			t.Fatal("no circumcenter removal committed")
		}
		deny()
		want(2, "the first rollback after a commit")

		mgr.hold = 0
		th.streak.start = time.Now().Add(-time.Hour)
		deny()
		want(3, "a rollback an hour into retrying")
		deny()
		deny()
		want(5, "rollbacks after a zero hold")
	})
}

// holdingCM is a contention manager that counts its consults and books
// hold of contention time for each, without blocking.
type holdingCM struct {
	cm.Aggressive
	calls      int
	hold       time.Duration
	contention int64
}

func (h *holdingCM) OnRollback(tid, conflictTid int) {
	h.calls++
	h.contention += int64(h.hold)
}

func (h *holdingCM) ContentionNs(tid int) int64 { return h.contention }

// TestStaleRetryIsReclassified drives the Conflict arm of doInsertion
// for an R1 element, then closes its sparsity gate before the retry —
// another thread's isosurface sample lands within δ of the planned
// point. A re-queued element is a bare handle, classified afresh when
// popped, so the retry must see the new sample and do nothing: no
// operation, no re-queue, and the element's count released.
func TestStaleRetryIsReclassified(t *testing.T) {
	im := img.SpherePhantom(24)
	s, err := NewSession(Config{Workers: 2, ContentionManager: "aggressive", MaxElements: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}

	// A refiner over the stopped run's state, with every list empty and
	// every count released.
	r := refinerOver(s, res)
	type candidate struct {
		h   arena.Handle
		act action
	}
	var r1 []candidate
	r.mesh.LiveCells(func(h arena.Handle, c *delaunay.Cell) {
		c.Aux.Store(0)
		if act, ok := r.classify(c, r.nearestSurface(c.CC)); ok && act.rule == R1 {
			r1 = append(r1, candidate{h, act})
		}
	})
	for _, th := range r.threads {
		th.pel, th.removals = th.pel[:0], th.removals[:0]
		th.poorOwn = 0
		th.poorForeign.Store(0)
	}
	th := r.threads[1]

	deny := faultinject.New(faultinject.Config{
		Seed:  5,
		Rates: map[faultinject.Point]float64{faultinject.LockDeny: 1},
	})
	for _, cand := range r1 {
		c := r.mesh.Cells.At(cand.h)
		// The R1 operation, denied its locks, goes back to the PEL.
		restore := faultinject.Enable(deny)
		rollbacks := th.w.Stats.Rollbacks
		r.doInsertion(th, cand.h, cand.act)
		restore()
		if th.w.Stats.Rollbacks != rollbacks+1 || len(th.pel) != 1 || th.pel[0] != cand.h {
			t.Fatalf("denied R1 on cell %d: %d rollbacks, PEL %v", cand.h, th.w.Stats.Rollbacks-rollbacks, th.pel)
		}
		if th.poorOwn != 1 {
			t.Fatalf("re-queued element counted %d times", th.poorOwn)
		}

		// Meanwhile an isosurface sample lands at the planned point.
		r.isoGrid.Add(cand.act.point, 0)
		if _, ok := r.classify(c, r.nearestSurface(c.CC)); ok {
			// Another rule (R2, R3, R4 or R5) still applies to this
			// cell: a retry would rightly do that. Try the next one.
			r.countOut(th, cand.h)
			th.pel = th.pel[:0]
			continue
		}

		ops, rules := r.ops.Load(), th.ruleCount
		if !r.iterate(th) {
			t.Fatal("iterate ended the run")
		}
		if r.ops.Load() != ops || th.ruleCount != rules {
			t.Fatalf("stale R1 retry on cell %d ran an operation: rules %v → %v", cand.h, rules, th.ruleCount)
		}
		if len(th.pel) != 0 || th.poorOwn != 0 || c.Aux.Load() != 0 {
			t.Fatalf("stale R1 retry left PEL %v, count %d, Aux %d", th.pel, th.poorOwn, c.Aux.Load())
		}
		if c.Dead() {
			t.Fatalf("cell %d died without an operation", cand.h)
		}
		if err := r.mesh.Check(); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("none of %d pending R1 elements is left poor by nothing else: the test is vacuous", len(r1))
}

// TestRetriesLeaveNoDanglingCount soaks a warm two-worker session whose
// operations keep losing their locks: every conflicted element is
// re-queued as a handle and re-classified, and each run must still end
// with every poor-element count released.
func TestRetriesLeaveNoDanglingCount(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed:  11,
		Rates: map[faultinject.Point]float64{faultinject.LockDeny: 0.01},
		After: map[faultinject.Point]int64{faultinject.LockDeny: 200},
	})
	defer faultinject.Enable(inj)()

	images := []*img.Image{img.SpherePhantom(24), img.KneePhantom(24, 24, 24)}
	s, err := NewSession(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rollbacks int64
	for i := 0; i < 20; i++ {
		res, err := s.Run(context.Background(), images[i%len(images)])
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCompleted {
			t.Fatalf("run %d: %v", i, res.Status)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		rollbacks += res.Stats.Rollbacks
	}
	if rollbacks == 0 {
		t.Fatal("no operation was rolled back: no retry was exercised")
	}
}

// TestReusedSlotIsNotReclassified is TestStaleRetryIsReclassified's
// sibling for slot reuse. On a single-owner mesh a cell killed while
// queued gives up its slot, and a later commit creates a cell there, so
// the queued handle now names a cell that was never queued under it.
// Popping that stale entry must release nothing and ask nothing: the
// new cell is poor, and classifying it would run an operation.
func TestReusedSlotIsNotReclassified(t *testing.T) {
	im := img.SpherePhantom(24)
	s, err := NewSession(Config{Workers: 1, MaxElements: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}

	// A refiner over the stopped run's state — its mesh still single-owner
	// — with every list empty and every count released.
	r := refinerOver(s, res)
	th := r.threads[0]
	reset := func() {
		r.mesh.LiveCells(func(_ arena.Handle, c *delaunay.Cell) { c.Aux.Store(0) })
		th.pel, th.removals, th.scratch = th.pel[:0], th.removals[:0], th.scratch[:0]
		th.poorOwn = 0
	}
	poor := func(c *delaunay.Cell) (action, bool) {
		near, ok := r.poorQuick(c)
		if !ok {
			return action{}, false
		}
		return r.classify(c, near)
	}

	for attempt := 0; attempt < 20; attempt++ {
		reset()
		var h arena.Handle
		var act action
		r.mesh.LiveCells(func(ch arena.Handle, c *delaunay.Cell) {
			if a, ok := poor(c); ok && h == arena.Nil && a.rule != R6 {
				h, act = ch, a
			}
		})
		if h == arena.Nil {
			t.Fatal("no poor cell left to queue")
		}
		c := r.mesh.Cells.At(h)
		gen := c.Gen()

		// h is queued; an operation on its own region kills it while it
		// waits, and the cells that operation creates are queued above it.
		r.countIn(th, h)
		th.pel = append(th.pel, h)
		r.doInsertion(th, h, act)
		if !c.Dead() || th.poorOwn != int64(len(th.pel)-1) {
			t.Fatalf("the operation left cell %d dead=%v, %d counted for %d queued above it",
				h, c.Dead(), th.poorOwn, len(th.pel)-1)
		}
		// Refine above it until a commit creates a cell in h's slot.
		for i := 0; c.Gen() == gen && len(th.pel) > 1 && i < 50; i++ {
			if !r.iterate(th) {
				t.Fatal("iterate ended the run")
			}
		}
		if c.Gen() == gen || c.Dead() {
			continue // not reused, or reused and killed again: try another
		}
		if _, ok := poor(c); !ok {
			continue // the new cell needs nothing: popping it would prove nothing
		}
		// Everything queued above the stale entry, the new cell's own
		// entry included, is released unprocessed.
		for _, e := range th.pel[1:] {
			r.countOut(th, e)
		}
		th.pel, th.removals = th.pel[:1], th.removals[:0]
		if th.pel[0] != h || th.poorOwn != 0 || c.Aux.Load() != 0 {
			t.Fatalf("before the pop: PEL %v, count %d, Aux %d", th.pel, th.poorOwn, c.Aux.Load())
		}

		ops, rules, stats := r.ops.Load(), th.ruleCount, th.w.Stats
		if !r.iterate(th) {
			t.Fatal("iterate ended the run")
		}
		if r.ops.Load() != ops || th.ruleCount != rules || th.w.Stats != stats {
			t.Fatalf("the stale entry for slot %d ran an operation on the cell now there: rules %v → %v",
				h, rules, th.ruleCount)
		}
		if len(th.pel) != 0 || th.poorOwn != 0 || c.Aux.Load() != 0 || c.Dead() {
			t.Fatalf("after the pop: PEL %v, count %d, Aux %d, dead %v", th.pel, th.poorOwn, c.Aux.Load(), c.Dead())
		}
		if err := r.mesh.Check(); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no attempt left a poor cell in a reused slot under a stale entry: the test is vacuous")
}
