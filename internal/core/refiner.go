package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/balance"
	"repro/internal/cm"
	"repro/internal/delaunay"
	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/spatial"
)

// Refiner runs the parallel image-to-mesh conversion.
type Refiner struct {
	cfg  Config
	ctx  context.Context // the run's cancellation; nil = never canceled
	im   *img.Image
	ic   imageConsts
	edt  *edt.Transform
	mesh *delaunay.Mesh

	isoGrid *spatial.Grid // isosurface samples (Kind Iso/Surface), spacing δ
	ccGrid  *spatial.Grid // inserted circumcenters, for R6

	cm    cm.Manager
	bal   balance.Balancer
	coord *cm.Coordinator

	threads []*thread

	done       atomic.Bool
	failed     atomic.Bool // run aborted: the Result is partial
	livelocked atomic.Bool // the stall watchdog aborted the run
	capped     atomic.Bool // MaxElements cut the run before its fixpoint

	ops atomic.Int64
	// insideCount is the number of live final-mesh cells (for
	// MaxElements), current as of each thread's last committed
	// operation: a thread accumulates an operation's changes in
	// thread.insideDelta and adds them here once.
	insideCount atomic.Int64

	// causeMu guards cause, the first reason the run was aborted for.
	causeMu sync.Mutex
	cause   error

	startWall time.Time
	timeline  []TimelinePoint
	tlMu      sync.Mutex
}

// thread is the per-worker refinement state.
type thread struct {
	id int
	w  *delaunay.Worker

	pel      []arena.Handle // poor element list (LIFO)
	removals []arena.Handle // pending R6 victim vertices

	// inbox holds work donated by other threads. n mirrors len(items),
	// stored under mu, so an empty inbox is seen without the lock.
	inbox struct {
		mu    sync.Mutex
		items []arena.Handle
		n     atomic.Int32
	}

	inside      []arena.Handle // cells created with circumcenter inside O
	insideDelta int64          // change to Refiner.insideCount not yet added to it

	// The valid queued elements currently in this thread's PEL (paper
	// Section 4.4) number poorOwn + poorForeign: incremented when an
	// element is pushed here (by anyone), decremented by whichever
	// thread pops or invalidates it. Cell.Aux holds the owning thread
	// id + 1 while an element is counted, so increment/decrement pair up
	// exactly once. The thread's own adjustments — nearly all of them,
	// and all of them in a single-worker run — go to the plain poorOwn;
	// only another thread's (a donation, an invalidation from outside)
	// pay for an atomic. Only the owner needs the sum while the run is
	// live (the donation threshold).
	poorOwn     int64
	poorForeign atomic.Int64

	// Overheads (paper Section 5.5). Contention time lives in the CM,
	// idle time in the balancer; rollbackNs is the partially-completed
	// work thrown away by rollbacks.
	rollbackNs int64
	streak     rollbackStreak // when a rollback consults the contention manager

	ruleCount [7]int64 // indexed by Rule
	scratch   []arena.Handle
}

// Run performs the complete PI2M pipeline on cfg: parallel EDT, then
// parallel Delaunay refinement to the quality/fidelity criteria, then
// final-mesh extraction. It is a one-shot Session: callers meshing
// repeatedly should create a Session once and Run it per image, which
// reuses the arena, grid and scratch allocations across runs.
func Run(cfg Config) (*Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(context.Background(), cfg.Image)
}

// newRefiner returns the run-scoped state that depends only on the
// (defaulted) configuration; the session attaches the transform, mesh,
// grids and threads it retains across runs.
func newRefiner(ctx context.Context, cfg Config) *Refiner {
	r := &Refiner{cfg: cfg, im: cfg.Image, ctx: ctx}
	r.ic = newImageConsts(cfg.Image, cfg)
	return r
}

// noteCreated records a fresh (or bootstrap) cell: in the final-mesh
// list when its circumcenter is inside O — the one time the image is
// asked for the circumcenter's label; the rules read the flag — and
// in the thread's PEL candidates. A queued cell is a bare handle:
// every rule question about it is asked when it is popped, so a cell
// invalidated while queued never pays for one, and a retry is
// classified afresh.
func (r *Refiner) noteCreated(t *thread, h arena.Handle, c *delaunay.Cell) {
	if r.im.LabelAt(c.CC) != 0 {
		c.SetInside(true)
		t.inside = append(t.inside, h)
		t.insideDelta++
	}
	t.scratch = append(t.scratch, h)
}

// publishInside adds the thread's pending final-mesh count changes to
// the run's counter: one atomic per operation instead of one per cell.
func (r *Refiner) publishInside(t *thread) {
	if t.insideDelta != 0 {
		r.insideCount.Add(t.insideDelta)
		t.insideDelta = 0
	}
}

// flushScratch moves newly created cells to the thread's own PEL or
// donates them to a beggar. Per Section 4.4, a thread may only give
// work away while its own counter of valid queued elements is at
// least the threshold.
func (r *Refiner) flushScratch(t *thread) {
	if len(t.scratch) == 0 {
		return
	}
	if t.poorOwn+t.poorForeign.Load() >= donateThreshold {
		if beggar, ok := r.bal.ClaimBeggar(t.id); ok {
			bt := r.threads[beggar]
			for _, ch := range t.scratch {
				r.tag(ch, bt)
			}
			bt.poorForeign.Add(int64(len(t.scratch)))
			bt.inbox.mu.Lock()
			bt.inbox.items = append(bt.inbox.items, t.scratch...)
			bt.inbox.n.Store(int32(len(bt.inbox.items)))
			bt.inbox.mu.Unlock()
			r.bal.Wake(beggar)
			r.untagDead(t, t.scratch)
			t.scratch = t.scratch[:0]
			return
		}
	}
	for _, ch := range t.scratch {
		r.countIn(t, ch)
	}
	r.untagDead(t, t.scratch)
	t.pel = append(t.pel, t.scratch...)
	t.scratch = t.scratch[:0]
}

// untagDead releases the count of every cell in hs that another worker
// killed before its tag landed: the killer's countOut found nothing to
// release then, and a count left on a dead cell would be lost when the
// slot is reused (init zeroes Aux). It runs inside the tagging thread's
// epoch section, so the slot cannot have been reused yet. A lone worker
// kills only its own cells, which it has tagged already.
func (r *Refiner) untagDead(t *thread, hs []arena.Handle) {
	if len(r.threads) == 1 {
		return
	}
	for _, h := range hs {
		if r.mesh.Cells.At(h).Dead() {
			r.countOut(t, h)
		}
	}
}

// tag records in cell ch that owner's count includes it.
func (r *Refiner) tag(ch arena.Handle, owner *thread) {
	r.mesh.Cells.At(ch).Aux.Store(uint32(owner.id + 1))
}

// countIn marks cell ch as a counted poor element of t, the calling
// thread.
func (r *Refiner) countIn(t *thread, ch arena.Handle) {
	r.tag(ch, t)
	t.poorOwn++
}

// countOut releases the poor-element count for ch, whichever thread
// holds it, on behalf of the calling thread t; reports whether it was
// still counted. Most cells reaching here are not (popped earlier),
// and a load tells without the swap's bus lock.
func (r *Refiner) countOut(t *thread, ch arena.Handle) bool {
	aux := &r.mesh.Cells.At(ch).Aux
	if aux.Load() == 0 {
		return false
	}
	old := aux.Swap(0)
	switch {
	case old == 0:
		return false
	case int(old-1) == t.id:
		t.poorOwn--
	default:
		r.threads[old-1].poorForeign.Add(-1)
	}
	return true
}

// drainInbox moves donated work to the PEL. An empty inbox — nearly
// every call — costs one atomic load, not a lock.
func (t *thread) drainInbox() {
	if t.inbox.n.Load() == 0 {
		return
	}
	t.inbox.mu.Lock()
	t.pel = append(t.pel, t.inbox.items...)
	t.inbox.items = t.inbox.items[:0]
	t.inbox.n.Store(0)
	t.inbox.mu.Unlock()
}

// workerLoop is Algorithm 1: pop a poor element, apply the rule's
// operation speculatively, handle rollbacks through the contention
// manager, update PELs, and balance load until global termination.
func (r *Refiner) workerLoop(t *thread) {
	for !r.done.Load() {
		if !r.iterate(t) {
			return
		}
	}
}

// iterate executes one iteration. It returns false when the worker
// must exit. A panic — in the kernel, the rules, a user callback, or
// injected by the fault harness — releases the operation's vertex
// locks and aborts the run with the panic as its cause: the mesh is
// left as the last committed operation left it.
//
// An iteration is one epoch section of the kernel worker (see
// delaunay.Worker.Pin): no cell it reaches is reused before it ends.
// A thread about to park — idle on the begging list, or blocked by the
// contention manager — closes the section first, so that a parked
// thread never holds the other workers' killed cells in limbo.
func (r *Refiner) iterate(t *thread) (cont bool) {
	t.w.Pin()
	defer func() {
		if p := recover(); p != nil {
			t.w.RecoverFromPanic()
			r.abortRun(fmt.Errorf("thread %d panicked: %v", t.id, p))
			cont = false
		}
		t.w.Unpin()
	}()

	// A lone worker has nobody to fill its inbox.
	if len(r.threads) > 1 {
		t.drainInbox()
	}

	// Pending R6 removals first: they unblock termination near the
	// isosurface.
	if len(t.removals) > 0 {
		vh := t.removals[len(t.removals)-1]
		t.removals = t.removals[:len(t.removals)-1]
		r.doRemoval(t, vh)
		return true
	}

	if len(t.pel) == 0 {
		t.w.Unpin()
		return r.idle(t)
	}

	ch := t.pel[len(t.pel)-1]
	t.pel = t.pel[:len(t.pel)-1]
	// A cell killed while queued (Section 4.3) released its count, and
	// its slot may since hold a newer cell, whose own entry sits above
	// this stale one — or, with several workers, in another thread's
	// PEL — and is popped there: either way, only a still-counted handle
	// names a cell that is queued, and no slot is reused while counted.
	if !r.countOut(t, ch) {
		return true
	}
	c := r.mesh.Cells.At(ch)
	// With several workers a counted cell may have been killed by
	// another one whose countOut has not run yet; it is not read past
	// its flags. From here the section keeps the slot from reuse.
	if c.Dead() {
		return true
	}
	// Every rule question is asked here, once per pop, so a conflicted
	// retry is classified afresh against the samples added since.
	near, poor := r.poorQuick(c)
	if !poor {
		return true
	}
	act, ok := r.classify(c, near)
	if !ok {
		return true
	}
	r.doInsertion(t, ch, act)
	return true
}

// doInsertion executes one rule-driven point insertion.
func (r *Refiner) doInsertion(t *thread, ch arena.Handle, act action) {
	start := time.Now()
	res, st := t.w.Insert(act.point, act.kind, ch)
	switch st {
	case delaunay.OK:
		t.ruleCount[act.rule]++
		r.ops.Add(1)
		r.postCommit(t, act, res)
		r.cm.OnSuccess(t.id)
		t.streak.commit()
		r.flushScratch(t)
	case delaunay.Conflict:
		// The element was not refined: it goes back to the PEL — to the
		// bottom of the stack, so the thread "moves on to the next bad
		// element" (Section 4.2).
		r.countIn(t, ch)
		r.untagDead(t, []arena.Handle{ch})
		t.pel = pushBottom(t.pel, ch)
		r.rolledBack(t, start)
	case delaunay.Stale:
		// The cell died between pop and operation; its replacements
		// were classified by whoever killed it.
	case delaunay.Failed, delaunay.Outside:
		// Geometric failure (duplicate sample raced in, or a
		// circumcenter outside the hull): drop. If the region still
		// violates a rule, a later operation re-discovers it.
	}
}

// doRemoval executes one R6 vertex removal.
func (r *Refiner) doRemoval(t *thread, vh arena.Handle) {
	v := r.mesh.Verts.At(vh)
	if v.Dead() || v.Kind != delaunay.KindCircum {
		return
	}
	start := time.Now()
	res, st := t.w.Remove(vh)
	switch st {
	case delaunay.OK:
		t.ruleCount[R6]++
		r.ops.Add(1)
		r.postCommit(t, action{rule: R6}, res)
		r.cm.OnSuccess(t.id)
		t.streak.commit()
		r.flushScratch(t)
	case delaunay.Conflict:
		t.removals = pushBottom(t.removals, vh)
		r.rolledBack(t, start)
	case delaunay.Stale, delaunay.Failed:
		// Already removed, or a degenerate link: keep the vertex (the
		// quality rules still hold; R6 is a termination aid).
	}
}

// rolledBack ends a conflicted operation that started at start, once
// its work item is back on the thread's stack: the time spent on it is
// rollback overhead, and the thread consults the contention manager
// (Section 4.5) when its streak of rollbacks says so.
func (r *Refiner) rolledBack(t *thread, start time.Time) {
	now := time.Now()
	atomic.AddInt64(&t.rollbackNs, int64(now.Sub(start)))
	if !t.streak.rollback(now) {
		return
	}
	t.w.Unpin() // the contention manager may park the thread
	before := r.cm.ContentionNs(t.id)
	r.cm.OnRollback(t.id, t.w.ConflictTid)
	t.streak.consulted(now, time.Duration(r.cm.ContentionNs(t.id)-before))
}

// rollbackStreak decides when a rolled-back thread consults the
// contention manager. It is rent-or-buy: a retry costs well under a
// microsecond and a park in Global- or Local-CM ~100 µs of an idle
// core, so the thread keeps retrying other work (the rolled-back item
// went to the bottom of its stack) until its current streak of
// rollbacks has lasted as long as the manager held it the last time.
// A commit ends the streak. A manager that held the thread for no time
// (Aggressive-CM always, Random-CM until it sleeps) is consulted again
// at the next rollback. If no thread commits, every streak grows until
// its thread consults the manager, whose handshake (Fig. 2) then rules
// out livelock as before. The rent is capped at maxRent.
type rollbackStreak struct {
	start time.Time     // when the current streak's retrying began; zero while committing
	hold  time.Duration // how long the manager held the thread at its last consult, at most maxRent
}

// rollback records a rollback at now and reports whether the thread
// consults the contention manager for it.
func (s *rollbackStreak) rollback(now time.Time) bool {
	if s.start.IsZero() {
		s.start = now
	}
	return now.Sub(s.start) >= s.hold
}

// consulted records that the contention manager, consulted for the
// rollback at now, held the thread for hold; the thread's retrying
// starts over when the manager lets it go.
func (s *rollbackStreak) consulted(now time.Time, hold time.Duration) {
	s.hold = min(hold, maxRent)
	s.start = now.Add(hold)
}

// maxRent bounds how long a streak retries before it consults: about
// twice the ~100 µs a Global- or Local-CM park costs. A longer hold was
// spent waiting on a descheduled peer or in Random-CM's 1–5 ms sleep,
// and renting that long turns oversubscription into a rollback storm.
const maxRent = 200 * time.Microsecond

// commit ends the current streak.
func (s *rollbackStreak) commit() { s.start = time.Time{} }

// pushBottom puts a rolled-back work item at the bottom of a thread's
// LIFO stack, so the thread moves on to its other work first: push,
// then swap with the bottom entry. Allocation free once the slice has
// grown.
func pushBottom[T any](stack []T, item T) []T {
	stack = append(stack, item)
	if n := len(stack) - 1; n > 0 {
		stack[0], stack[n] = stack[n], stack[0]
	}
	return stack
}

// cellBudgetExceeded reports whether the MaxElements cap is hit.
func (r *Refiner) cellBudgetExceeded() bool {
	return r.cfg.MaxElements > 0 && r.insideCount.Load() >= int64(r.cfg.MaxElements)
}

// postCommit performs the bookkeeping after a committed operation:
// classify created cells, register new samples in the spatial grids,
// and trigger R6 removals around new isosurface vertices.
func (r *Refiner) postCommit(t *thread, act action, res *delaunay.OpResult) {
	// Invalidated elements release their poor-element counts (Section
	// 4.4: "when T_i invalidates an element c ... it decreases
	// accordingly the counter of the thread that contains c in its
	// PEL").
	for _, kh := range res.Killed {
		r.countOut(t, kh)
		if r.mesh.Cells.At(kh).Inside() {
			t.insideDelta--
		}
	}
	for _, nh := range res.Created {
		r.noteCreated(t, nh, r.mesh.Cells.At(nh))
	}
	r.publishInside(t)
	if r.cellBudgetExceeded() {
		r.capped.Store(true)
		r.finish()
	}
	if res.NewVert == arena.Nil {
		return
	}
	switch act.kind {
	case delaunay.KindIso, delaunay.KindSurface:
		r.isoGrid.Add(act.point, uint32(res.NewVert))
		if !r.cfg.DisableRemovals {
			// R6: already inserted circumcenters closer than 2δ to the
			// new isosurface vertex are deleted.
			r.ccGrid.ForEachWithin(act.point, 2*r.deltaAt(act.point), func(id uint32, q geom.Vec3) bool {
				vh := arena.Handle(id)
				if !r.mesh.Verts.At(vh).Dead() {
					t.removals = append(t.removals, vh)
				}
				return true
			})
		}
	case delaunay.KindCircum:
		r.ccGrid.Add(act.point, uint32(res.NewVert))
	}
}

// idle parks the thread on the begging list. It returns false when the
// run is over. The last active thread never parks: it first wakes a
// contention-list waiter, and if there is none — every other thread is
// parked with an empty PEL — it declares termination (the deadlock
// rule of Section 5.3).
func (r *Refiner) idle(t *thread) bool {
	for {
		if r.done.Load() {
			return false
		}
		if r.coord.TryDeactivate() {
			ok := r.bal.AwaitWork(t.id)
			r.coord.Reactivate()
			if !ok {
				return false
			}
			t.drainInbox()
			return true
		}
		// Last active thread.
		if r.cm.WakeOne() {
			runtime.Gosched() // a hand-off: let the woken waiter reactivate
			t.drainInbox()
			if len(t.pel) > 0 || len(t.removals) > 0 {
				return true
			}
			continue
		}
		t.drainInbox()
		if len(t.pel) > 0 || len(t.removals) > 0 {
			return true
		}
		// Work may have been donated to a parked thread that has not
		// resumed yet; its inbox is the only place it can hide.
		if r.anyInboxPending() {
			runtime.Gosched() // a hand-off: let the donee drain its inbox
			continue
		}
		// A thread that deactivated in the coordinator but has not yet
		// registered in the contention list (or parked on the begging
		// list) is invisible to WakeOne — and may still hold a full PEL.
		// Only threads actually parked on the begging list are known to
		// be empty-handed, so termination requires all of them there.
		if r.bal.Idle() != len(r.threads)-1 {
			runtime.Gosched() // a hand-off: let it reach the begging list
			continue
		}
		// No work anywhere: terminate the run.
		r.finish()
		return false
	}
}

// anyInboxPending reports whether any thread has undelivered donated
// work.
func (r *Refiner) anyInboxPending() bool {
	for _, t := range r.threads {
		if t.inbox.n.Load() > 0 {
			return true
		}
	}
	return false
}

// finish flips the done flag and releases every parked or blocked
// thread.
func (r *Refiner) finish() {
	if r.done.CompareAndSwap(false, true) {
		r.cm.Quiesce()
		r.bal.Quiesce()
	}
}

// abortRun terminates the run; the Result is partial but consistent
// (every committed operation is atomic under the locking protocol).
// Only the first cause is kept: a cancellation that lands after an
// engine abort does not rename it.
func (r *Refiner) abortRun(cause error) {
	r.causeMu.Lock()
	if r.cause == nil {
		r.cause = cause
	}
	r.causeMu.Unlock()
	r.failed.Store(true)
	r.finish()
}

// startAux launches the run's supervisor, one goroutine that runs the
// stall watchdog, the context watcher, and the timeline/progress
// samplers off one select; the returned function stops it. The
// watchdog is always armed: a run that commits no operation for
// LivelockTimeout — an Aggressive-CM or Random-CM livelock (Section
// 5.1), or a lost wake-up — aborts with Livelocked set instead of
// hanging.
func (r *Refiner) startAux() func() {
	var done <-chan struct{}
	if ctx := r.ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			// Already canceled before the first worker starts: abort
			// synchronously. The supervisor alone races tiny runs,
			// which can complete before it is ever scheduled and
			// return StatusCompleted for a canceled job.
			r.abortRun(fmt.Errorf("canceled: %w", err))
		} else {
			done = ctx.Done()
		}
	}
	// A sampler that is off is a nil channel: its case never fires.
	var tickers []*time.Ticker
	ticker := func(on bool, d time.Duration) <-chan time.Time {
		if !on {
			return nil
		}
		t := time.NewTicker(d)
		tickers = append(tickers, t)
		return t.C
	}
	stall := ticker(true, r.cfg.LivelockTimeout/10)
	progress := ticker(r.cfg.Progress != nil, r.cfg.progressSample)
	timeline := ticker(r.cfg.TimelineSample > 0, r.cfg.TimelineSample)

	stop, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		last := r.ops.Load()
		lastChange := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-done:
				r.abortRun(fmt.Errorf("canceled: %w", r.ctx.Err()))
				done = nil
			case <-stall:
				if cur := r.ops.Load(); cur != last {
					last = cur
					lastChange = time.Now()
				} else if stalled := time.Since(lastChange); stalled >= r.cfg.LivelockTimeout {
					r.livelocked.Store(true)
					r.abortRun(fmt.Errorf("livelock: no operation committed for %v under the %s contention manager",
						stalled.Round(time.Millisecond), r.cfg.ContentionManager))
					stall = nil
				}
			case <-progress:
				if !r.reportProgress() {
					progress = nil
				}
			case <-timeline:
				r.sampleTimeline()
			}
		}
	}()
	return func() {
		close(stop)
		<-exited
		for _, t := range tickers {
			t.Stop()
		}
	}
}

// reportProgress calls the Progress callback; a panicking callback
// aborts the run, as in a worker, and reports false.
func (r *Refiner) reportProgress() (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.abortRun(fmt.Errorf("progress callback panicked: %v", p))
		}
	}()
	r.cfg.Progress(Progress{
		Wall:       time.Since(r.startWall),
		Operations: r.ops.Load(),
		Elements:   r.insideCount.Load(),
	})
	return true
}

func (r *Refiner) sampleTimeline() {
	var totalNs int64
	for i, t := range r.threads {
		totalNs += r.cm.ContentionNs(i) + r.bal.IdleNs(i) + atomic.LoadInt64(&t.rollbackNs)
	}
	pt := TimelinePoint{
		Wall:       time.Since(r.startWall),
		OverheadNs: totalNs,
	}
	r.tlMu.Lock()
	r.timeline = append(r.timeline, pt)
	r.tlMu.Unlock()
}
