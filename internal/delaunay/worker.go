package delaunay

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/faultinject"
)

// Status is the outcome of a speculative operation.
type Status int

const (
	// OK: the operation committed.
	OK Status = iota
	// Conflict: a vertex lock was held by another worker; the
	// operation rolled back with no effect. ConflictTid identifies the
	// owner for the contention manager.
	Conflict
	// Stale: the operation's target (start cell or vertex) was dead on
	// arrival; the caller should drop the work item.
	Stale
	// Failed: the operation could not be applied for geometric reasons
	// (exact duplicate point, degenerate configuration, removal
	// retriangulation mismatch). No effect.
	Failed
	// Outside: the point to insert lies outside the triangulated box.
	Outside
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case Conflict:
		return "Conflict"
	case Stale:
		return "Stale"
	case Failed:
		return "Failed"
	case Outside:
		return "Outside"
	}
	return "Unknown"
}

// OpResult reports the cells changed by a committed operation. The
// slices are owned by the worker and valid until its next operation.
type OpResult struct {
	Created []arena.Handle
	Killed  []arena.Handle
	NewVert arena.Handle
}

// Stats counts a worker's kernel-level activity. LocksAcquired stays 0
// on a single-owner mesh, which takes no locks.
type Stats struct {
	Inserts       int64 // committed insertions
	Removals      int64 // committed removals
	Rollbacks     int64 // operations aborted on a lock conflict
	StaleOps      int64 // operations dropped on dead targets
	FailedOps     int64 // geometric failures
	WalkSteps     int64 // point-location steps
	CavityCells   int64 // cells deleted by insertions (cavity sizes)
	LocksAcquired int64
}

// Worker performs speculative operations on a shared Mesh on behalf of
// one thread. A Worker must only be used from a single goroutine.
type Worker struct {
	m   *Mesh
	tid int32

	va *arena.Allocator[Vertex]
	ca *arena.Allocator[Cell]

	// free holds cell slots nobody can still be reading: on a
	// single-owner mesh the cells this worker's committed operations
	// killed, on a shared one those that have left limbo, and on either
	// an abandoned removal fill. newCell reuses them, last freed first,
	// before drawing on ca.
	free []arena.Handle

	// limbo holds, oldest first, the cells this worker's commits killed
	// on a shared mesh, until no worker can still hold them; marks
	// splits it by commit (see reclaim).
	limbo []arena.Handle
	marks []limboMark

	// keepKilled leaves killed cells where they lie, never to be reused:
	// the bootstrap's worker sets it, so that the recorded initial
	// triangulation a Reset restores is a cold build's, handle for
	// handle.
	keepKilled bool

	// pinned is set while the worker is inside an epoch section; ann is
	// what it announced there, epoch<<1 | 1, and 0 while it is
	// quiescent (see Pin).
	pinned bool
	ann    atomic.Uint64

	// locked holds the vertices locked by the in-flight operation, in
	// acquisition order.
	locked []arena.Handle

	// sc is the pooled per-operation scratch (cavity walk, boundary,
	// removal tables), drawn from scratchPool so transient workers — the
	// bootstrap of every mesh (re)build, one-shot query workers — reuse
	// buffers that long-lived workers warmed up.
	sc *opScratch

	result OpResult
	rng    *rand.Rand

	// ConflictTid is the owner of the lock that caused the most recent
	// Conflict status (-1 otherwise).
	ConflictTid int

	Stats Stats
}

// opScratch bundles every buffer an operation needs beyond the
// worker's allocators: the Bowyer-Watson cavity walk state and the
// vertex-removal bookkeeping. Instances cycle through scratchPool;
// all fields are length-reset or cleared at the start of each use, so
// stale contents are harmless. The lookup tables are generation-stamped
// (see table), so clearing them costs the same after a large cavity as
// after a small one, and they allocate on first use only.
type opScratch struct {
	cavity   []arena.Handle
	boundary []bFace
	visited  table[uint8]   // cell -> visitCavity / visitOutside
	edges    table[edgeRef] // star edge -> the new cell still waiting across it

	// Vertex-removal state.
	faces    table[fillFace] // sorted face -> the cells on its sides
	linkSeen table[bool]     // link vertices already collected
	link     []arena.Handle
	open     [][3]arena.Handle // faces still to fill, hole side positive
	fill     []arena.Handle
	rewires  []rewire
}

var scratchPool = sync.Pool{New: func() any { return new(opScratch) }}

// bFace is a cavity boundary face: face `face` of inside (cavity) cell
// `in`, with the live outside cell `out` across it.
type bFace struct {
	in   arena.Handle
	face int
	out  arena.Handle
}

// edgeRef identifies a pending internal face during cavity
// re-triangulation.
type edgeRef struct {
	cell arena.Handle
	face int
}

// limboMark closes one commit's run of limbo: limbo[:end] holds its
// cells and older ones, and stamp is the global epoch read after its
// last kill.
type limboMark struct {
	stamp uint64
	end   int
}

// NewWorker creates a worker with the given id (ids must be unique
// among concurrently operating workers and >= 0).
func (m *Mesh) NewWorker(tid int) *Worker {
	w := &Worker{
		m:           m,
		tid:         int32(tid),
		va:          m.Verts.NewAllocator(),
		ca:          m.Cells.NewAllocator(),
		sc:          scratchPool.Get().(*opScratch),
		rng:         walkRNG(tid),
		ConflictTid: -1,
	}
	m.register(w)
	return w
}

// walkRNG seeds the walk-randomization generator deterministically per
// worker id, so a reused worker reproduces a fresh one's behavior.
func walkRNG(tid int) *rand.Rand {
	return rand.New(rand.NewSource(int64(tid)*7919 + 1))
}

// PrepareReuse readies a retained worker for a fresh run on a mesh
// that has been Reset: the allocators detach from the recycled arena
// chunks, the free list and limbo (slots the reset discarded) empty,
// kernel counters restart, and the walk RNG is reseeded so a warm run
// is indistinguishable from a cold one.
func (w *Worker) PrepareReuse() {
	w.va.Reset()
	w.ca.Reset()
	w.free = w.free[:0]
	w.limbo = w.limbo[:0]
	w.marks = w.marks[:0]
	w.Unpin()
	w.Stats = Stats{}
	w.rng = walkRNG(int(w.tid))
	w.ConflictTid = -1
	w.locked = w.locked[:0]
	if w.sc == nil {
		w.sc = scratchPool.Get().(*opScratch)
	}
}

// Release returns the worker's pooled scratch to the package pool and
// takes it off the mesh's list of workers. The worker must not be used
// afterwards. A dropped worker stays listed, quiescent, for the life of
// the mesh; short-lived workers that Release also let the bootstrap of
// the next mesh reset reuse their buffers.
func (w *Worker) Release() {
	w.Unpin()
	w.m.unregister(w)
	if w.sc != nil {
		scratchPool.Put(w.sc)
		w.sc = nil
	}
}

// Mesh returns the shared mesh the worker operates on.
func (w *Worker) Mesh() *Mesh { return w.m }

// ID returns the worker id.
func (w *Worker) ID() int { return int(w.tid) }

// tryLock attempts to acquire v's lock. It reports success; on failure
// it records the conflicting owner in w.ConflictTid. Re-acquiring a
// vertex already held by this worker succeeds without recording it
// twice. On a single-owner mesh there is nobody to exclude: it succeeds
// without touching the vertex, so nothing is ever held or counted.
func (w *Worker) tryLock(vh arena.Handle) bool {
	if lockHook != nil {
		lockHook(w, vh)
	}
	// The injection site comes first, so a single-owner mesh still sees
	// synthetic denials.
	if faultinject.Fire(faultinject.LockDeny) {
		// Synthetic CAS denial: behave exactly like a lost race with an
		// unknown owner so the rollback/contention-manager path runs.
		w.ConflictTid = -1
		return false
	}
	if w.m.single {
		return true
	}
	lock := &w.m.Verts.At(vh).lock
	if atomic.CompareAndSwapInt32(lock, 0, w.tid+1) {
		w.locked = append(w.locked, vh)
		w.Stats.LocksAcquired++
		return true
	}
	owner := atomic.LoadInt32(lock)
	if owner == w.tid+1 {
		return true // reentrant
	}
	// The owner may have released between the CAS and the Load; retry
	// once to avoid a spurious rollback.
	if atomic.CompareAndSwapInt32(lock, 0, w.tid+1) {
		w.locked = append(w.locked, vh)
		w.Stats.LocksAcquired++
		return true
	}
	owner = atomic.LoadInt32(lock)
	w.ConflictTid = int(owner) - 1
	return false
}

// lockCell locks all four vertices of cell c.
func (w *Worker) lockCell(c *Cell) bool {
	for i := 0; i < 4; i++ {
		if !w.tryLock(c.V[i]) {
			return false
		}
	}
	return true
}

// unlockAll releases every lock held by the in-flight operation (none,
// on a single-owner mesh).
func (w *Worker) unlockAll() {
	for _, vh := range w.locked {
		atomic.StoreInt32(&w.m.Verts.At(vh).lock, 0)
	}
	w.locked = w.locked[:0]
}

// newCell returns a slot for a cell the in-flight operation creates:
// one from the free list, or a fresh arena slot.
func (w *Worker) newCell() arena.Handle {
	if n := len(w.free); n > 0 {
		h := w.free[n-1]
		w.free = w.free[:n-1]
		return h
	}
	return w.ca.Alloc()
}

// retire kills cell ch as part of a commit, after the operation has
// created every cell it needs. On a single-owner mesh nobody else can
// hold the handle mid-walk, so the slot goes on the free list at once;
// on a shared mesh it waits in limbo (see seal and reclaim).
func (w *Worker) retire(ch arena.Handle) {
	w.m.kill(w.m.Cells.At(ch))
	switch {
	case w.m.single:
		w.free = append(w.free, ch)
	case !w.keepKilled:
		w.limbo = append(w.limbo, ch)
	}
}

// seal stamps the cells the commit just put in limbo with the global
// epoch. It runs after the commit's last kill and its firstCell store:
// until then a not-yet-killed cavity cell, or the old firstCell, still
// leads a walker that entered its section earlier to a killed one, and
// an epoch read at the first kill could let the slot go while that
// walker holds it.
func (w *Worker) seal() {
	if n := len(w.limbo); n > 0 && (len(w.marks) == 0 || w.marks[len(w.marks)-1].end < n) {
		w.marks = append(w.marks, limboMark{stamp: w.m.epoch.Load(), end: n})
	}
}

// epochLag is how many epochs a killed cell waits in limbo. The global
// epoch moves from e to e+1 only once every worker inside a section has
// announced e, so while any worker that could have reached a cell
// killed at epoch s is still inside its section, the epoch stays at or
// below s+1.
const epochLag = 2

// Pin opens an epoch section on a shared mesh: until Unpin, no cell
// this worker can reach is reused. Insert, Remove and Locate pin for
// their own duration when the caller has not; a caller that keeps
// handles from one of them to the next — the refiner, from a pop to
// its follow-up bookkeeping — pins around them all. A handle from an
// earlier section may name a reused slot: it reads as dead while the
// slot is free or being rebuilt, and as a complete, newer cell after.
// A worker that blocks must Unpin first: it holds every other worker's
// killed cells in limbo, and once a worker's limbo passes limboCap
// that worker's next Pin waits for it. A no-op on a single-owner mesh,
// or when already pinned.
func (w *Worker) Pin() {
	if !w.pinned && !w.m.single {
		w.pin()
	}
}

// Unpin closes the worker's epoch section; a no-op outside one.
func (w *Worker) Unpin() {
	if w.pinned {
		w.ann.Store(0)
		w.pinned = false
	}
}

// pin reclaims what limbo allows while the worker is still quiescent,
// so it never holds the epoch back itself, not even while it waits
// there, then announces the epoch.
func (w *Worker) pin() {
	w.reclaim()
	w.ann.Store(w.m.epoch.Load()<<1 | 1)
	w.pinned = true
}

// limboCap bounds a worker's limbo on a shared mesh, in cells. A
// worker inside its section holds the epoch back for as long as it
// stays there — descheduled by the host, say — and meanwhile the
// others create every cell in a fresh slot. Past the cap, a worker's
// next Pin waits, quiescent, until the laggard has moved on and its
// limbo is back under the cap. While every section runs, a limbo
// holds a few hundred cells.
const limboCap = 1024

// reclaim moves to the free list every limbo cell killed at least
// epochLag epochs ago, first advancing the epoch as far as the other
// workers' announcements allow. With more than limboCap cells left in
// limbo it waits for the announcements to move and tries again.
func (w *Worker) reclaim() {
	for spins := 0; len(w.marks) > 0; spins++ {
		m := w.m
		e := m.epoch.Load()
		for w.marks[0].stamp+epochLag > e && m.advance(e) {
			e = m.epoch.Load()
		}
		n := 0
		for n < len(w.marks) && w.marks[n].stamp+epochLag <= e {
			n++
		}
		if n > 0 {
			end := w.marks[n-1].end
			w.free = append(w.free, w.limbo[:end]...)
			w.limbo = w.limbo[:copy(w.limbo, w.limbo[end:])]
			w.marks = w.marks[:copy(w.marks, w.marks[n:])]
			for i := range w.marks {
				w.marks[i].end -= end
			}
		}
		if len(w.limbo) <= limboCap {
			return
		}
		// Yield first: the laggard may be waiting for this thread's P.
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// lockHook, when set, runs at the top of every tryLock, with the vertex
// about to be locked: the point where an operation can meet another.
// Tests set it to interleave workers deterministically; it is nil
// otherwise.
var lockHook func(*Worker, arena.Handle)

// reset prepares the worker's scratch state for a new operation.
func (w *Worker) reset() {
	sc := w.sc
	sc.cavity = sc.cavity[:0]
	sc.boundary = sc.boundary[:0]
	sc.visited.clear()
	w.result.Created = w.result.Created[:0]
	w.result.Killed = w.result.Killed[:0]
	w.result.NewVert = arena.Nil
	w.ConflictTid = -1
}

// rollback aborts the in-flight operation.
func (w *Worker) rollback() {
	w.unlockAll()
	w.Stats.Rollbacks++
}

// RecoverFromPanic restores the worker to a usable state after a panic
// unwound an in-flight operation: every held vertex lock is released in
// reverse acquisition order (innermost first, mirroring the unwind),
// the scratch state is cleared and the epoch section is closed. It
// returns the number of locks that were released. The shared mesh is
// untouched by definition at every panic-safe site (the commit phases
// perform no allocation and no call that can panic), so dropping the
// locks re-exposes a consistent mesh.
func (w *Worker) RecoverFromPanic() int {
	n := len(w.locked)
	for i := n - 1; i >= 0; i-- {
		atomic.StoreInt32(&w.m.Verts.At(w.locked[i]).lock, 0)
	}
	w.locked = w.locked[:0]
	w.reset()
	w.Unpin()
	return n
}
