package delaunay

import (
	"math/rand"
	"sync"
	"sync/atomic"

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

	// free holds the cells this worker's committed operations killed on
	// a single-owner mesh; newCell reuses them, last killed first,
	// before drawing on ca. Empty on a shared mesh.
	free []arena.Handle

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

// NewWorker creates a worker with the given id (ids must be unique
// among concurrently operating workers and >= 0).
func (m *Mesh) NewWorker(tid int) *Worker {
	return &Worker{
		m:           m,
		tid:         int32(tid),
		va:          m.Verts.NewAllocator(),
		ca:          m.Cells.NewAllocator(),
		sc:          scratchPool.Get().(*opScratch),
		rng:         walkRNG(tid),
		ConflictTid: -1,
	}
}

// walkRNG seeds the walk-randomization generator deterministically per
// worker id, so a reused worker reproduces a fresh one's behavior.
func walkRNG(tid int) *rand.Rand {
	return rand.New(rand.NewSource(int64(tid)*7919 + 1))
}

// PrepareReuse readies a retained worker for a fresh run on a mesh
// that has been Reset: the allocators detach from the recycled arena
// chunks, the free list (slots the reset discarded) empties, kernel
// counters restart, and the walk RNG is reseeded so a warm run is
// indistinguishable from a cold one.
func (w *Worker) PrepareReuse() {
	w.va.Reset()
	w.ca.Reset()
	w.free = w.free[:0]
	w.Stats = Stats{}
	w.rng = walkRNG(int(w.tid))
	w.ConflictTid = -1
	w.locked = w.locked[:0]
	if w.sc == nil {
		w.sc = scratchPool.Get().(*opScratch)
	}
}

// Release returns the worker's pooled scratch to the package pool. The
// worker must not be used afterwards. Optional — a dropped worker is
// simply collected — but short-lived workers that Release let the
// bootstrap of the next mesh reset reuse their buffers.
func (w *Worker) Release() {
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
// one its own earlier operations killed, on a single-owner mesh, or a
// fresh arena slot.
func (w *Worker) newCell() arena.Handle {
	if n := len(w.free); n > 0 && w.m.single {
		h := w.free[n-1]
		w.free = w.free[:n-1]
		return h
	}
	return w.ca.Alloc()
}

// retire kills cell ch as part of a commit, after the operation has
// created every cell it needs. On a single-owner mesh nobody else can
// hold the handle mid-walk, so the slot goes on the free list at once.
func (w *Worker) retire(ch arena.Handle) {
	w.m.kill(w.m.Cells.At(ch))
	if w.m.single {
		w.free = append(w.free, ch)
	}
}

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
// reverse acquisition order (innermost first, mirroring the unwind) and
// the scratch state is cleared. It returns the number of locks that
// were released. The shared mesh is untouched by definition at every
// panic-safe site (the commit phases perform no allocation and no call
// that can panic), so dropping the locks re-exposes a consistent mesh.
func (w *Worker) RecoverFromPanic() int {
	n := len(w.locked)
	for i := n - 1; i >= 0; i-- {
		atomic.StoreInt32(&w.m.Verts.At(w.locked[i]).lock, 0)
	}
	w.locked = w.locked[:0]
	w.reset()
	return n
}
