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

	ops atomic.Int64
	// insideCount is the number of live final-mesh cells (for
	// MaxElements), current as of each thread's last committed
	// operation: a thread accumulates an operation's changes in
	// thread.insideDelta and adds them here once.
	insideCount atomic.Int64

	recoveredPanics atomic.Int64
	droppedItems    atomic.Int64
	callbackPanics  atomic.Int64

	// trMu guards the transition log and the abort reason.
	trMu        sync.Mutex
	transitions []Transition
	reason      string

	startWall time.Time
	timeline  []TimelinePoint
	tlMu      sync.Mutex
}

// thread is the per-worker refinement state.
type thread struct {
	id int
	w  *delaunay.Worker

	pel      []pelItem      // poor element list (LIFO)
	removals []arena.Handle // pending R6 victim vertices

	inbox struct {
		mu    sync.Mutex
		items []pelItem
	}

	inside      []arena.Handle // cells created with circumcenter inside O
	insideDelta int64          // change to Refiner.insideCount not yet added to it

	// The valid poor elements currently in this thread's PEL (paper
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

	// panics counts operations this thread recovered from a panic; the
	// run aborts once it exceeds the panic budget.
	panics int

	// cur describes the operation in flight, so the panic handler can
	// re-queue it. curKind is curNone outside an operation.
	cur     pelItem
	curVert arena.Handle
	curKind uint8

	// Overheads (paper Section 5.5). Contention time lives in the CM,
	// idle time in the balancer; rollbackNs is the partially-completed
	// work thrown away by rollbacks.
	rollbackNs int64

	ruleCount [7]int64 // indexed by Rule
	scratch   []pelItem
}

const (
	curNone uint8 = iota
	curInsertion
	curRemoval
)

// pelItem is a poor element with the surface query its creator made
// for it, optionally with a classification already computed (act.rule
// != RuleNone): a conflicted operation re-queues its element with the
// action cached so the retry skips re-classification. retries counts
// panic-recovery re-queues of this item, bounded by retryBudget.
type pelItem struct {
	cell    arena.Handle
	retries int32
	near    nearest
	act     action
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

// noteCreated classifies a fresh (or bootstrap) cell: records it in
// the final-mesh list when its circumcenter is inside O — the one time
// the image is asked for the circumcenter's label; the rules read the
// flag — and appends it to the thread's PEL candidates when a rule
// may apply.
func (r *Refiner) noteCreated(t *thread, h arena.Handle, c *delaunay.Cell) {
	if r.im.LabelAt(c.CC) != 0 {
		c.SetInside(true)
		t.inside = append(t.inside, h)
		t.insideDelta++
	}
	if near, poor := r.poorQuick(c); poor {
		t.scratch = append(t.scratch, pelItem{cell: h, near: near})
	}
}

// publishInside adds the thread's pending final-mesh count changes to
// the run's counter: one atomic per operation instead of one per cell.
func (r *Refiner) publishInside(t *thread) {
	if t.insideDelta != 0 {
		r.insideCount.Add(t.insideDelta)
		t.insideDelta = 0
	}
}

// flushScratch moves newly found poor elements to the thread's own PEL
// or donates them to a beggar. Per Section 4.4, a thread may only give
// work away while its own counter of valid poor elements is at least
// the threshold.
func (r *Refiner) flushScratch(t *thread) {
	if len(t.scratch) == 0 {
		return
	}
	if t.poorOwn+t.poorForeign.Load() >= donateThreshold {
		if beggar, ok := r.bal.ClaimBeggar(t.id); ok {
			bt := r.threads[beggar]
			for _, item := range t.scratch {
				r.tag(item.cell, bt)
			}
			bt.poorForeign.Add(int64(len(t.scratch)))
			bt.inbox.mu.Lock()
			bt.inbox.items = append(bt.inbox.items, t.scratch...)
			bt.inbox.mu.Unlock()
			r.bal.Wake(beggar)
			t.scratch = t.scratch[:0]
			return
		}
	}
	for _, item := range t.scratch {
		r.countIn(t, item.cell)
	}
	t.pel = append(t.pel, t.scratch...)
	t.scratch = t.scratch[:0]
}

// tag records in cell ch that owner's count includes it.
func (r *Refiner) tag(ch arena.Handle, owner *thread) {
	r.mesh.Cells.At(ch).Aux.Store(uint64(owner.id + 1))
}

// countIn marks cell ch as a counted poor element of t, the calling
// thread.
func (r *Refiner) countIn(t *thread, ch arena.Handle) {
	r.tag(ch, t)
	t.poorOwn++
}

// countOut releases the poor-element count for ch, whichever thread
// holds it, on behalf of the calling thread t; reports whether it was
// still counted. Most cells reaching here are not (popped earlier, or
// never queued), and a load tells without the swap's bus lock.
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

func (t *thread) drainInbox() {
	t.inbox.mu.Lock()
	if len(t.inbox.items) > 0 {
		t.pel = append(t.pel, t.inbox.items...)
		t.inbox.items = t.inbox.items[:0]
	}
	t.inbox.mu.Unlock()
}

// workerLoop is Algorithm 1: pop a poor element, apply the rule's
// operation speculatively, handle rollbacks through the contention
// manager, update PELs, and balance load until global termination.
// Each iteration runs panic-isolated (see iterate): a panic in the
// kernel, the rules, or injected by the fault harness is recovered,
// counted, and the in-flight element re-queued, instead of killing the
// process.
func (r *Refiner) workerLoop(t *thread) {
	for !r.done.Load() {
		if !r.iterate(t) {
			return
		}
	}
}

// iterate executes one protected iteration. It returns false when the
// worker must exit (termination, or this thread's panic budget is
// exhausted).
func (r *Refiner) iterate(t *thread) (cont bool) {
	t.curKind = curNone
	defer func() {
		if p := recover(); p != nil {
			cont = r.recoverWorker(t, p)
		}
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
		t.curVert, t.curKind = vh, curRemoval
		r.doRemoval(t, vh)
		return true
	}

	if len(t.pel) == 0 {
		return r.idle(t)
	}

	item := t.pel[len(t.pel)-1]
	t.pel = t.pel[:len(t.pel)-1]
	r.countOut(t, item.cell)
	c := r.mesh.Cells.At(item.cell)
	if c.Dead() {
		return true // invalidated while queued (Section 4.3)
	}
	t.cur, t.curKind = item, curInsertion
	act := item.act
	// Fresh items carry no classification (the creating thread only
	// ran the cheap poorness test); conflicted retries carry theirs,
	// revalidated against the sparsity gates that newer samples may
	// have closed.
	fresh := act.rule == RuleNone
	stale := (act.rule == R1 && r.isoGrid.AnyWithin(act.point, r.cfg.Delta)) ||
		(act.rule == R3 && r.isoGrid.AnyWithin(act.point, r.cfg.Delta/4))
	if fresh || stale {
		var ok bool
		act, ok = r.classify(c, item.near)
		if !ok {
			return true
		}
		t.cur.act = act
	}
	r.doInsertion(t, item.cell, act)
	return true
}

// recoverWorker is the panic handler of one worker iteration: release
// the locks the unwound operation still holds (in reverse), count the
// fault, re-queue the in-flight element within its retry budget, and
// keep the worker running until its panic budget is exhausted — then
// end the whole run with a clean structured abort.
func (r *Refiner) recoverWorker(t *thread, p any) (cont bool) {
	t.w.RecoverFromPanic()
	r.recoveredPanics.Add(1)
	t.panics++

	// Poor elements discovered by the unwound operation stay with this
	// thread (donation could deadlock against a half-recovered state).
	for _, item := range t.scratch {
		r.countIn(t, item.cell)
	}
	t.pel = append(t.pel, t.scratch...)
	t.scratch = t.scratch[:0]

	switch t.curKind {
	case curInsertion:
		if t.cur.retries < retryBudget {
			t.cur.retries++
			r.countIn(t, t.cur.cell)
			t.pel = append(t.pel, t.cur)
		} else {
			r.droppedItems.Add(1)
		}
	case curRemoval:
		// R6 is a termination aid, not a correctness requirement: a
		// removal that panicked is dropped rather than retried.
		r.droppedItems.Add(1)
	}
	t.curKind = curNone

	if t.panics > r.cfg.panicBudget {
		reason := fmt.Sprintf("panic budget exhausted: thread %d recovered %d panics, last: %v",
			t.id, t.panics, p)
		r.recordTransition("abort", reason)
		r.abortRun(reason)
		return false
	}
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
		r.flushScratch(t)
	case delaunay.Conflict:
		atomic.AddInt64(&t.rollbackNs, int64(time.Since(start)))
		// The element was not refined: it goes back to the PEL — to the
		// bottom of the stack, so the thread "moves on to the next bad
		// element" (Section 4.2) — and the thread consults the
		// contention manager (Section 4.5).
		r.countIn(t, ch)
		t.pel = pushBottom(t.pel, pelItem{cell: ch, near: t.cur.near, act: act, retries: t.cur.retries})
		r.cm.OnRollback(t.id, t.w.ConflictTid)
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
		r.flushScratch(t)
	case delaunay.Conflict:
		atomic.AddInt64(&t.rollbackNs, int64(time.Since(start)))
		t.removals = pushBottom(t.removals, vh)
		r.cm.OnRollback(t.id, t.w.ConflictTid)
	case delaunay.Stale, delaunay.Failed:
		// Already removed, or a degenerate link: keep the vertex (the
		// quality rules still hold; R6 is a termination aid).
	}
}

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
		t.inbox.mu.Lock()
		n := len(t.inbox.items)
		t.inbox.mu.Unlock()
		if n > 0 {
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

// abortRun terminates the run with a structured reason; the Result is
// partial but consistent (every committed operation is atomic under
// the locking protocol).
func (r *Refiner) abortRun(reason string) {
	r.trMu.Lock()
	if r.reason == "" {
		r.reason = reason
	}
	r.trMu.Unlock()
	r.failed.Store(true)
	r.finish()
}

// recordTransition appends an event to the run's transition log.
func (r *Refiner) recordTransition(event, detail string) {
	tr := Transition{Wall: time.Since(r.startWall), Event: event, Detail: detail}
	r.trMu.Lock()
	r.transitions = append(r.transitions, tr)
	r.trMu.Unlock()
	if r.cfg.onTransition != nil {
		r.cfg.onTransition(tr)
	}
}

// noteCallbackPanic counts a recovered panic in user-supplied callback
// code; the first one is recorded in the transition log so the run is
// marked Degraded.
func (r *Refiner) noteCallbackPanic(name string, p any) {
	if r.callbackPanics.Add(1) == 1 {
		tr := Transition{Wall: time.Since(r.startWall), Event: "callback-panic",
			Detail: fmt.Sprintf("%s: %v", name, p)}
		r.trMu.Lock()
		r.transitions = append(r.transitions, tr)
		r.trMu.Unlock()
	}
}

// startAux launches the stall watchdog, the context watcher, and the
// timeline/progress samplers; the returned function stops them. The
// watchdog is always armed: a run that commits no operation for
// LivelockTimeout — an Aggressive-CM or Random-CM livelock (Section
// 5.1), or a lost wake-up — aborts with Livelocked set instead of
// hanging.
func (r *Refiner) startAux() func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(r.cfg.LivelockTimeout / 10)
		defer tick.Stop()
		last := r.ops.Load()
		lastChange := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if cur := r.ops.Load(); cur != last {
					last = cur
					lastChange = time.Now()
				} else if stalled := time.Since(lastChange); stalled >= r.cfg.LivelockTimeout {
					reason := fmt.Sprintf("livelock: no operation committed for %v under the %s contention manager",
						stalled.Round(time.Millisecond), r.cfg.ContentionManager)
					r.livelocked.Store(true)
					r.recordTransition("abort", reason)
					r.abortRun(reason)
					return
				}
			}
		}
	}()

	if ctx := r.ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			// Already canceled before the first worker starts: abort
			// synchronously. The watcher goroutine alone races tiny
			// runs, which can complete before it is ever scheduled and
			// return StatusCompleted for a canceled job.
			reason := fmt.Sprintf("canceled: %v", err)
			r.recordTransition("cancel", reason)
			r.abortRun(reason)
		} else {
			wg.Add(1)
			go func() {
				defer wg.Done()
				select {
				case <-stop:
				case <-ctx.Done():
					reason := fmt.Sprintf("canceled: %v", ctx.Err())
					r.recordTransition("cancel", reason)
					r.abortRun(reason)
				}
			}()
		}
	}

	if r.cfg.Progress != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(r.cfg.progressSample)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					r.cfg.Progress(Progress{
						Wall:       time.Since(r.startWall),
						Operations: r.ops.Load(),
						Elements:   r.insideCount.Load(),
					})
				}
			}
		}()
	}

	if r.cfg.TimelineSample > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(r.cfg.TimelineSample)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					r.sampleTimeline()
				}
			}
		}()
	}

	return func() {
		close(stop)
		wg.Wait()
	}
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

// guardCallbacks wraps the user-supplied callbacks so a panic in user
// code is recovered and degrades the run instead of crashing a worker
// or sampler goroutine.
func (r *Refiner) guardCallbacks() {
	if f := r.cfg.userSizeFunc; f != nil {
		r.cfg.SizeFunc = func(p geom.Vec3) (out float64) {
			defer func() {
				if pv := recover(); pv != nil {
					r.noteCallbackPanic("SizeFunc", pv)
					out = noSizeBound
				}
			}()
			return f(p)
		}
	}
	if f := r.cfg.DeltaFunc; f != nil {
		r.cfg.DeltaFunc = func(p geom.Vec3) (out float64) {
			defer func() {
				if pv := recover(); pv != nil {
					r.noteCallbackPanic("DeltaFunc", pv)
					out = r.cfg.Delta
				}
			}()
			return f(p)
		}
	}
	if f := r.cfg.Progress; f != nil {
		var disabled atomic.Bool
		r.cfg.Progress = func(p Progress) {
			if disabled.Load() {
				return
			}
			defer func() {
				if pv := recover(); pv != nil {
					r.noteCallbackPanic("Progress", pv)
					disabled.Store(true)
				}
			}()
			f(p)
		}
	}
}
