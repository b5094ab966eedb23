// Package delaunay implements the concurrent 3D Delaunay kernel at the
// heart of PI2M: a shared tetrahedral mesh supporting speculative
// Bowyer-Watson point insertion and Devillers-style vertex removal by
// multiple workers, synchronized with fine-grained per-vertex locks
// and rollbacks (paper Section 4.2).
//
// Concurrency protocol. Every operation (insertion or removal) locks —
// via a compare-and-swap per-vertex lock — every vertex of every cell
// it reads during cavity expansion or ball gathering, *before* reading
// that cell's connectivity. A neighbor reached across a face of a cell
// the operation has fully locked shares that face's three vertices, so
// locking it means acquiring its one remaining vertex, the apex. Cell
// mutation (marking dead, rewiring a neighbor pointer across a face)
// is only performed by an operation holding the locks of the mutated
// cell's — respectively the shared face's — vertices. Consequently,
// once an operation holds a cell's four vertex locks and observes the
// cell alive, the cell's connectivity is frozen until the operation
// completes. A failed lock acquisition aborts the operation (a
// rollback): all held locks are released, no mutation has happened,
// and the conflicting owner is reported to the contention manager.
//
// Which accesses are atomic. Synchronization is paid where two workers
// can meet, nowhere else:
//
//   - Vertex.Pos/Kind/Stamp and Cell.V/CC/R2 are written once, before
//     the entry is reachable, and are plain ever after.
//   - Vertex.lock, Vertex.flags, Cell.flags and the neighbor pointers
//     can be read by a worker that holds no lock (the lock-free locate
//     walk, a CAS on a contended vertex), so they are read with atomic
//     loads — and written with atomic stores *once the entry is
//     reachable*.
//   - A new vertex, the star an insertion creates and the fill a
//     removal creates are unreachable until the operation rewires the
//     surviving outside cells to point at them. Everything written
//     before that — every field of the new entries and the wiring of
//     the new cells among themselves — is a plain store: initialize,
//     then publish. The one atomic store per boundary face that
//     publishes (Mesh.publish) is the release edge; the atomic load
//     through which a walker first steps onto a new cell is the
//     acquire edge, so it sees the entry complete.
//   - Vertex.incident is read and written only by an operation holding
//     that vertex's lock (and by sweeps of a quiesced mesh); the lock's
//     acquire/release orders the accesses, so it is a plain field.
//
// Single-owner meshes. A mesh that only one goroutine at a time ever
// touches needs none of the above: SetSingleOwner(true) makes tryLock a
// no-op that acquires nothing (no CAS, no unlock store, LocksAcquired
// stays 0, every Vertex.lock stays 0) and makes publish and kill plain
// stores. It is one Mesh field read on the same code path, not a second
// kernel. Two callers set it: core.Session for a Workers == 1 run, and
// the sequential baselines. NewMesh returns a shared mesh. The fault
// harness's LockDeny site fires ahead of the shortcut, so a
// single-owner mesh still sees synthetic denials and rolls back.
//
// Storage. Cells and vertices live in arenas (package arena), so a
// speculative reader holding a stale handle always sees type-stable
// memory. On a shared mesh that memory is at worst flagged dead, never
// recycled: the lock-free walk depends on it. On a single-owner mesh
// nobody can be mid-walk, so each Worker keeps the cells its committed
// operations killed on a free list and creates new cells there first;
// a handle held across operations may then name a newer cell, and its
// holder must tell them apart (Cell.Gen). Vertices are never reused.
package delaunay

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/geom"
	"repro/internal/predicates"
)

// VertKind classifies mesh vertices according to the refinement rules
// that created them (paper Section 3).
type VertKind uint8

const (
	// KindBox marks the eight virtual-box corners.
	KindBox VertKind = iota
	// KindIso marks isosurface samples (rules R1, R3's surface
	// centers are KindSurface).
	KindIso
	// KindCircum marks inserted circumcenters (rules R2, R4, R5).
	KindCircum
	// KindSurface marks surface-centers of facets (rule R3).
	KindSurface
)

// Vertex is a mesh vertex. Pos, Kind and Stamp are immutable after
// creation; lock and flags are accessed atomically once the vertex is
// reachable; incident is guarded by lock (see the package comment).
type Vertex struct {
	Pos  geom.Vec3
	lock int32 // 0 free, otherwise owner worker id + 1

	// incident is a hint: a cell that contained this vertex when the
	// last operation holding this vertex's lock committed. For a live,
	// locked vertex the hint is a live cell containing it.
	incident uint32

	flags uint32 // vertDead

	// Stamp is the global insertion order (from 1; 0 marks a slot never
	// initialized).
	Stamp uint64

	Kind VertKind
}

const vertDead = 1

// Dead reports whether the vertex has been removed from the mesh.
func (v *Vertex) Dead() bool { return atomic.LoadUint32(&v.flags)&vertDead != 0 }

// Incident returns the vertex's incident-cell hint. The caller holds
// the vertex's lock or has the mesh quiesced.
func (v *Vertex) Incident() arena.Handle { return arena.Handle(v.incident) }

// LockedBy returns the id of the worker currently holding the vertex
// lock, or -1 when free. Intended for diagnostics.
func (v *Vertex) LockedBy() int { return int(atomic.LoadInt32(&v.lock)) - 1 }

// Cell flags. The bits above the two flags hold the slot's generation.
const (
	cellDead = 1 << iota
	// CellInside is set by the refiner when the cell's circumcenter
	// lies inside the imaged object O (the final mesh is the set of
	// such cells, paper Fig. 1c).
	CellInside = 1 << 1

	cellGenShift = 2
	cellFlagMask = 1<<cellGenShift - 1
)

// Cell is a tetrahedron. V, CC and R2 are immutable after creation;
// neighbor pointers and flags are accessed atomically once the cell is
// reachable and mutated only under the locking protocol described in
// the package comment.
type Cell struct {
	// V holds the four vertex handles, positively oriented:
	// Orient3D(V[0], V[1], V[2], V[3]) > 0.
	V [4]arena.Handle
	n [4]uint32

	// CC and R2 cache the circumcenter and squared circumradius.
	CC geom.Vec3
	R2 float64

	flags uint32

	// Aux is scratch space for the refiner's per-cell bookkeeping
	// (poor-element-list membership: the owning thread id + 1); the
	// kernel only zeroes it when it initializes the cell. 32 bits keep
	// the cell at 72 bytes.
	Aux atomic.Uint32
}

// ftab lists, for each face index i (the face opposite vertex i), the
// three vertex indices of the face, ordered so that
// Orient3D(face, V[i]) > 0 for a positively oriented cell.
var ftab = [4][3]int{{1, 3, 2}, {0, 2, 3}, {0, 3, 1}, {0, 1, 2}}

// Dead reports whether the cell has been replaced by a later operation.
func (c *Cell) Dead() bool { return atomic.LoadUint32(&c.flags)&cellDead != 0 }

// Gen returns the slot's generation: how many times, modulo 2^30, a
// cell has been created in it since its arena chunk was last zeroed.
// A single-owner mesh reuses the slots of killed cells, so a caller
// that keeps a handle across operations records Gen with it and treats
// a mismatch as it would a dead cell.
func (c *Cell) Gen() uint32 { return atomic.LoadUint32(&c.flags) >> cellGenShift }

// Inside reports whether the refiner classified the cell as having its
// circumcenter inside the object.
func (c *Cell) Inside() bool { return atomic.LoadUint32(&c.flags)&CellInside != 0 }

// SetInside raises the CellInside flag (classification is monotone:
// a cell's circumcenter position never changes, so the flag is only
// ever set once, at creation). The cell is already published, and
// another worker may be retiring it: an atomic read-modify-write.
func (c *Cell) SetInside(in bool) {
	if in {
		atomic.OrUint32(&c.flags, CellInside)
	}
}

// Neighbor returns the cell across face i (arena.Nil on the hull).
func (c *Cell) Neighbor(i int) arena.Handle { return arena.Handle(atomic.LoadUint32(&c.n[i])) }

// init fills in every field of a freshly allocated cell with plain
// stores: nothing can reach it yet, and a slot may be recycled storage
// (after a Reset, or from a single-owner worker's free list), so
// nothing is left as found but the generation, which it bumps. Its
// neighbors start out Nil.
func (c *Cell) init(m *Mesh, v [4]arena.Handle) {
	c.V = v
	c.n = [4]uint32{}
	c.CC, c.R2 = circum(m, v)
	c.flags = c.flags&^cellFlagMask + 1<<cellGenShift
	c.Aux = atomic.Uint32{}
}

// apexAcross returns the vertex of n opposite the face it shares with
// face f of c. XOR-ing the three vertices of that face with n's four
// cancels the shared ones and leaves the apex.
func apexAcross(c *Cell, f int, n *Cell) arena.Handle {
	return c.V[ftab[f][0]] ^ c.V[ftab[f][1]] ^ c.V[ftab[f][2]] ^
		n.V[0] ^ n.V[1] ^ n.V[2] ^ n.V[3]
}

// FaceIndex returns which face of c is shared with neighbor handle nb,
// or -1 if nb is not a neighbor.
func (c *Cell) FaceIndex(nb arena.Handle) int {
	for i := 0; i < 4; i++ {
		if c.Neighbor(i) == nb {
			return i
		}
	}
	return -1
}

// VertIndex returns the index of vertex handle v in c, or -1.
func (c *Cell) VertIndex(v arena.Handle) int {
	for i := 0; i < 4; i++ {
		if c.V[i] == v {
			return i
		}
	}
	return -1
}

// HasVert reports whether v is a vertex of c.
func (c *Cell) HasVert(v arena.Handle) bool { return c.VertIndex(v) >= 0 }

// Mesh is the shared Delaunay triangulation.
type Mesh struct {
	Verts *arena.Arena[Vertex]
	Cells *arena.Arena[Cell]

	// single marks a mesh only one goroutine at a time touches: locks,
	// publishes and kills are plain (see SetSingleOwner).
	single bool

	stamp atomic.Uint64

	// Virtual box and super-tetrahedron geometry.
	boxLo, boxHi     geom.Vec3
	superLo, superHi geom.Vec3
	hullVolume       float64

	// firstCell is a recently created (hence probably live) cell used
	// as a default walk start; refreshed by every commit.
	firstCell atomic.Uint32

	// boot is the bootstrapped triangulation over [boxLo, boxHi] as
	// bootstrap left it, or nil when the last bootstrap failed. The
	// initial triangulation is a pure function of the box, so a reset
	// over the same box copies it back instead of rebuilding it.
	boot *bootRecord
}

// bootRecord is what a reset must put back besides the box and hull
// fields, which nothing changes between bootstraps: both arenas'
// contents, the stamp counter and the default walk start.
type bootRecord struct {
	verts     *arena.Prefix[Vertex]
	cells     *arena.Prefix[Cell]
	stamp     uint64
	firstCell uint32
}

// SetSingleOwner declares whether, from now until the next call, a
// single goroutine at a time operates on the mesh — workers, walkers
// and readers included. On a single-owner mesh operations acquire no
// vertex locks, publish with plain stores, and create cells in the
// slots of cells they killed; the triangulation is that of a shared
// mesh, cell for cell, though the handles naming the cells differ. The
// call itself must not race with any use of the mesh. NewMesh and Reset
// leave the mesh shared, so the bootstrap never reuses a slot.
func (m *Mesh) SetSingleOwner(on bool) { m.single = on }

// publish points face i of the reachable cell c at h. On a shared mesh
// this is the atomic store that makes a new star or fill visible to
// lock-free walkers, everything written before it included.
func (m *Mesh) publish(c *Cell, i int, h arena.Handle) {
	if m.single {
		c.n[i] = uint32(h)
		return
	}
	atomic.StoreUint32(&c.n[i], uint32(h))
}

// kill retires the reachable cell c, keeping its generation.
// SetInside may be racing on the same word of a shared mesh, hence the
// read-modify-write.
func (m *Mesh) kill(c *Cell) {
	if m.single {
		c.flags |= cellDead
		return
	}
	atomic.OrUint32(&c.flags, cellDead)
}

// killVert marks the reachable vertex v removed.
func (m *Mesh) killVert(v *Vertex) {
	if m.single {
		v.flags = vertDead
		return
	}
	atomic.StoreUint32(&v.flags, vertDead)
}

// NewMesh builds the initial triangulation enclosing the virtual box
// [lo, hi] (paper Fig. 1a). A super-tetrahedron comfortably containing
// the box is created first, and the eight box corners are then
// inserted through the regular kernel, so that the initial mesh is —
// like every later state — the unique symbolically perturbed Delaunay
// triangulation of its vertices. (The paper triangulates the box into
// six tetrahedra directly; routing the corners through the kernel
// preserves that picture while keeping the cospherical corners
// consistent with the perturbation scheme.) This bootstrap is the
// algorithm's only sequential part.
// A degenerate box (zero or inverted extent, or a corner insertion
// failure) is reported as an error rather than panicking, so a hostile
// or empty input image cannot crash the process.
func NewMesh(lo, hi geom.Vec3) (*Mesh, error) {
	m := &Mesh{
		Verts: arena.New[Vertex](),
		Cells: arena.New[Cell](),
	}
	if err := m.Reset(lo, hi); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset clears the mesh and restores the initial triangulation over a
// (possibly different) virtual box, retaining the arena chunks of the
// previous build so a warm rebuild performs almost no allocation. Over
// the box of the last bootstrap it rewinds both arenas to the recorded
// state, so handles are handed out afterwards in the same sequence as
// after a rebuild; over any other box it rebuilds and records anew. It
// must not race with any concurrent worker; a run session calls it
// between runs, when all workers are quiescent. The mesh comes back
// shared (see SetSingleOwner), and a retained Worker must be readied
// with PrepareReuse before its next operation.
func (m *Mesh) Reset(lo, hi geom.Vec3) error {
	m.single = false
	if b := m.boot; b != nil && lo == m.boxLo && hi == m.boxHi {
		m.Verts.Rewind(b.verts)
		m.Cells.Rewind(b.cells)
		m.stamp.Store(b.stamp)
		m.firstCell.Store(b.firstCell)
		return nil
	}
	m.boot = nil
	m.Verts.Reset()
	m.Cells.Reset()
	m.stamp.Store(0)
	if err := m.bootstrap(lo, hi); err != nil {
		return err
	}
	m.boot = &bootRecord{
		verts:     m.Verts.Record(),
		cells:     m.Cells.Record(),
		stamp:     m.stamp.Load(),
		firstCell: m.firstCell.Load(),
	}
	return nil
}

func (m *Mesh) bootstrap(lo, hi geom.Vec3) error {
	if !(lo.X < hi.X && lo.Y < hi.Y && lo.Z < hi.Z) {
		return fmt.Errorf("delaunay: degenerate virtual box [%v, %v]", lo, hi)
	}
	m.boxLo, m.boxHi = lo, hi
	va := m.Verts.NewAllocator()
	ca := m.Cells.NewAllocator()

	// Super-tetrahedron: a regular tetrahedron whose insphere contains
	// the box with a wide margin, centered on the box.
	ctr := lo.Add(hi).Scale(0.5)
	r := hi.Sub(lo).Norm() * 4 // >> box half-diagonal
	dirs := [4]geom.Vec3{
		{X: 1, Y: 1, Z: 1}, {X: 1, Y: -1, Z: -1}, {X: -1, Y: 1, Z: -1}, {X: -1, Y: -1, Z: 1},
	}
	var sv [4]arena.Handle
	for i, d := range dirs {
		h := va.Alloc()
		v := m.Verts.At(h)
		// The insphere radius of a regular tetrahedron is 1/3 of its
		// circumradius; scale so the insphere radius is 3r. Every field
		// is (re)initialized: a Reset recycles arena chunks.
		v.Pos = ctr.Add(d.Scale(3 * r * 3 / 1.7320508075688772)) // |d| = sqrt(3)
		v.Kind = KindBox
		v.Stamp = m.stamp.Add(1)
		v.flags = 0
		v.lock = 0
		sv[i] = h
	}
	if predicates.Orient3D(m.Verts.At(sv[0]).Pos, m.Verts.At(sv[1]).Pos,
		m.Verts.At(sv[2]).Pos, m.Verts.At(sv[3]).Pos) < 0 {
		sv[1], sv[2] = sv[2], sv[1]
	}
	ch := ca.Alloc()
	m.Cells.At(ch).init(m, sv)
	for _, h := range sv {
		m.Verts.At(h).incident = uint32(ch)
	}
	m.firstCell.Store(uint32(ch))
	m.hullVolume = geom.TetraVolume(m.Verts.At(sv[0]).Pos, m.Verts.At(sv[1]).Pos,
		m.Verts.At(sv[2]).Pos, m.Verts.At(sv[3]).Pos)
	mn, mx := m.Verts.At(sv[0]).Pos, m.Verts.At(sv[0]).Pos
	for _, h := range sv[1:] {
		mn = mn.Min(m.Verts.At(h).Pos)
		mx = mx.Max(m.Verts.At(h).Pos)
	}
	m.superLo, m.superHi = mn, mx

	// Insert the eight box corners through the kernel.
	w := m.NewWorker(0)
	defer w.Release()
	start := ch
	for b := 0; b < 8; b++ {
		p := geom.Vec3{
			X: pick(b&1 != 0, hi.X, lo.X),
			Y: pick(b&2 != 0, hi.Y, lo.Y),
			Z: pick(b&4 != 0, hi.Z, lo.Z),
		}
		// Nobody else is on the mesh during bootstrap, so a Conflict can
		// only be a synthetic CAS denial from the fault harness. Retry a
		// bounded number of times rather than failing construction: the
		// warm rebuild of a session runs with any active injector's After
		// budgets long spent.
		var res *OpResult
		var st Status
		for attempt := 0; ; attempt++ {
			res, st = w.Insert(p, KindBox, start)
			if st != Conflict || attempt >= 16 {
				break
			}
		}
		if st != OK {
			return fmt.Errorf("delaunay: bootstrap corner %d insertion failed: %s", b, st)
		}
		start = res.Created[0]
	}
	m.firstCell.Store(uint32(start))
	return nil
}

// circum computes the cached circumsphere of a cell; degenerate cells
// (which the kernel never creates) get an infinite radius so that
// quality rules reject them.
func circum(m *Mesh, vh [4]arena.Handle) (geom.Vec3, float64) {
	cc, r2, ok := geom.Circumsphere(
		m.Verts.At(vh[0]).Pos, m.Verts.At(vh[1]).Pos,
		m.Verts.At(vh[2]).Pos, m.Verts.At(vh[3]).Pos)
	if !ok {
		return geom.Vec3{}, math.Inf(1)
	}
	return cc, r2
}

// sortedFace returns face i of c as a sorted vertex-handle triple (a
// canonical key for face matching).
func sortedFace(c *Cell, i int) tkey {
	return sortedTri([3]arena.Handle{c.V[ftab[i][0]], c.V[ftab[i][1]], c.V[ftab[i][2]]})
}

// sortedTri is sortedFace's key for a bare vertex triple.
func sortedTri(t [3]arena.Handle) tkey {
	a, b, d := t[0], t[1], t[2]
	if a > b {
		a, b = b, a
	}
	if b > d {
		b, d = d, b
	}
	if a > b {
		a, b = b, a
	}
	return tkey{ab: uint64(a)<<32 | uint64(b), c: d}
}

// FirstCell returns a recently created cell to start walks from. It
// may have died since (the caller retries with a fresh value on a
// Stale status); it is refreshed on every committed operation, so
// retries make progress.
func (m *Mesh) FirstCell() arena.Handle { return arena.Handle(m.firstCell.Load()) }

// Bounds returns the virtual box.
func (m *Mesh) Bounds() (lo, hi geom.Vec3) { return m.boxLo, m.boxHi }

// NumVerts returns the number of vertex slots allocated (including
// removed vertices).
func (m *Mesh) NumVerts() int { return m.Verts.Len() - 1 }

// NumCellsAllocated returns the number of cell slots the arena has
// handed out: live cells, dead ones, and those waiting on a
// single-owner worker's free list. On a shared mesh no slot is reused
// within a run, so it counts every cell created since the last Reset;
// on a single-owner mesh it stays close to the live count.
func (m *Mesh) NumCellsAllocated() int { return m.Cells.Len() - 1 }

// Pos returns the position of vertex h.
func (m *Mesh) Pos(h arena.Handle) geom.Vec3 { return m.Verts.At(h).Pos }

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

// Face returns the vertex handles of face i (the face opposite vertex
// i), ordered so that Orient3D(face, V[i]) > 0.
func (c *Cell) Face(i int) [3]arena.Handle {
	return [3]arena.Handle{c.V[ftab[i][0]], c.V[ftab[i][1]], c.V[ftab[i][2]]}
}
