package delaunay

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/faultinject"
	"repro/internal/geom"
)

// opTrace is what an operation sequence hands back to its caller that
// does not depend on which cell slots it drew: the status of every
// operation, the vertex each insertion created (vertex slots are never
// reused), and how many cells each commit created and killed.
type opTrace struct {
	status []Status
	verts  []arena.Handle
	sizes  [][2]int
}

func (tr *opTrace) note(res *OpResult, st Status) {
	tr.status = append(tr.status, st)
	if st != OK {
		return
	}
	tr.verts = append(tr.verts, res.NewVert)
	tr.sizes = append(tr.sizes, [2]int{len(res.Created), len(res.Killed)})
}

// mixedProgram runs a seeded sequence on m: n insertions, alternating
// blocks of random points and of points on a 1/16 lattice (cospherical
// and coplanar by the dozen, what voxel images produce; duplicates are
// a legitimate Failed), then removal of every tenth inserted vertex.
// check, when non-nil, is called once a tenth of the way in.
func mixedProgram(t *testing.T, m *Mesh, w *Worker, n int, check func()) *opTrace {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	tr := &opTrace{}
	var verts []arena.Handle
	start := m.FirstCell()
	for i := 0; i < n; i++ {
		p := v3(rng.Float64(), rng.Float64(), rng.Float64())
		if i/64%2 == 1 {
			p = v3(float64(rng.Intn(17))/16, float64(rng.Intn(17))/16, float64(rng.Intn(17))/16)
		}
		res, st := w.Insert(p, KindCircum, start)
		tr.note(res, st)
		switch st {
		case OK:
			verts = append(verts, res.NewVert)
			start = res.Created[0]
		case Failed:
		default:
			t.Fatalf("insert %d at %v: %v", i, p, st)
		}
		if check != nil && i == n/10 {
			check()
		}
	}
	for i := 0; i < len(verts); i += 10 {
		res, st := w.Remove(verts[i])
		tr.note(res, st)
		if st != OK && st != Failed {
			t.Fatalf("remove %d: %v", verts[i], st)
		}
	}
	if w.Stats.Removals == 0 || w.Stats.FailedOps == 0 {
		t.Fatalf("program committed %d removals and hit %d failures; want both exercised",
			w.Stats.Removals, w.Stats.FailedOps)
	}
	return tr
}

// liveTuples lists the live cells of a quiesced mesh as their vertex
// handles, sorted: the triangulation, independent of the cell slots
// holding it.
func liveTuples(m *Mesh) [][4]arena.Handle {
	var out [][4]arena.Handle
	m.LiveCells(func(_ arena.Handle, c *Cell) { out = append(out, c.V) })
	slices.SortFunc(out, func(a, b [4]arena.Handle) int {
		for i := range a {
			if a[i] != b[i] {
				return cmp.Compare(a[i], b[i])
			}
		}
		return 0
	})
	return out
}

// TestSingleOwnerMatchesShared: the single-owner shortcut changes what
// an operation pays and which cell slots it fills, never what it does.
// One program on a shared and on a single-owner mesh must return the
// same status for every operation and end with the same triangulation
// over the same vertex handles — while the single-owner run acquires
// nothing. Both, reusing the slots their commits killed (the shared
// one two epochs later), hold little more arena than the most cells
// they ever had live. (The program ends with removals, which shrink
// the mesh; their slots wait on the free list or in limbo, so the
// bound is on the peak, and every slot is accounted for.)
func TestSingleOwnerMatchesShared(t *testing.T) {
	inserts := 5200
	if testing.Short() {
		inserts = 1000 // one goroutine: the race detector has nothing to find here
	}
	boot := unitBox()
	bootLive := boot.NumLiveCells()
	bootDead := boot.NumCellsAllocated() - bootLive
	run := func(single bool) (*Mesh, *Worker, *opTrace) {
		m := unitBox()
		m.SetSingleOwner(single)
		w := m.NewWorker(0)
		global := func() {
			if err := m.CheckDelaunayGlobal(); err != nil {
				t.Fatalf("single-owner=%v, a tenth in: %v", single, err)
			}
		}
		tr := mixedProgram(t, m, w, inserts, global)
		if err := m.Check(); err != nil {
			t.Fatalf("single-owner=%v: %v", single, err)
		}
		return m, w, tr
	}
	shared, sw, strace := run(false)
	single, ow, otrace := run(true)

	if len(strace.status) != len(otrace.status) {
		t.Fatalf("shared ran %d ops, single-owner %d", len(strace.status), len(otrace.status))
	}
	for i := range strace.status {
		if strace.status[i] != otrace.status[i] {
			t.Fatalf("op %d: shared %v, single-owner %v", i, strace.status[i], otrace.status[i])
		}
	}
	if !slices.Equal(strace.verts, otrace.verts) || !slices.Equal(strace.sizes, otrace.sizes) {
		t.Fatal("the committed operations created different vertices or different numbers of cells")
	}
	st, ot := liveTuples(shared), liveTuples(single)
	if !slices.Equal(st, ot) {
		t.Fatalf("live triangulations differ: shared %d cells, single-owner %d", len(st), len(ot))
	}
	if !testing.Short() {
		// O(cells x verts), seconds at this size; the two triangulations
		// were just shown identical, so one sweep covers both.
		if err := single.CheckDelaunayGlobal(); err != nil {
			t.Fatal(err)
		}
	}
	live, peak := bootLive, bootLive
	for _, sz := range otrace.sizes {
		live += sz[0] - sz[1]
		peak = max(peak, live)
	}
	alloc := single.NumCellsAllocated()
	if live != len(ot) || alloc != live+len(ow.free)+bootDead {
		t.Errorf("single-owner arena holds %d cells: %d live (%d by the trace), %d free, %d dead since the bootstrap",
			alloc, len(ot), live, len(ow.free), bootDead)
	}
	if float64(alloc) > 1.05*float64(peak) {
		t.Errorf("single-owner arena holds %d cells for a peak of %d live (%.2fx)", alloc, peak, float64(alloc)/float64(peak))
	}
	// The lone shared worker reuses the same slots, each two epochs
	// (here two of its own operations) after its kill.
	salloc := shared.NumCellsAllocated()
	if salloc != live+len(sw.free)+len(sw.limbo)+bootDead {
		t.Errorf("shared arena holds %d cells: %d live, %d free, %d in limbo, %d dead since the bootstrap",
			salloc, live, len(sw.free), len(sw.limbo), bootDead)
	}
	if float64(salloc) > 1.05*float64(peak) {
		t.Errorf("shared arena holds %d cells for a peak of %d live (%.2fx)", salloc, peak, float64(salloc)/float64(peak))
	}

	if sw.Stats.LocksAcquired == 0 {
		t.Error("the shared run acquired no locks")
	}
	if ow.Stats.LocksAcquired != 0 {
		t.Errorf("the single-owner run acquired %d locks", ow.Stats.LocksAcquired)
	}
	locksOff := sw.Stats
	locksOff.LocksAcquired = 0
	if ow.Stats != locksOff {
		t.Errorf("single-owner stats %+v, shared (locks aside) %+v", ow.Stats, locksOff)
	}
	// Not merely released: never written.
	single.Verts.ForEach(func(h arena.Handle, v *Vertex) {
		if v.lock != 0 {
			t.Fatalf("single-owner vertex %d has lock word %d", h, v.lock)
		}
	})
}

// TestSingleOwnerSeesLockDenials: the fault harness's LockDeny site sits
// ahead of the single-owner shortcut, so a mesh that takes no locks
// still rolls back on a synthetic denial — untouched — and commits the
// same operation once the storm is over.
func TestSingleOwnerSeesLockDenials(t *testing.T) {
	m := unitBox()
	m.SetSingleOwner(true)
	w := m.NewWorker(0)
	res, st := w.Insert(v3(0.5, 0.5, 0.5), KindCircum, m.FirstCell())
	if st != OK {
		t.Fatal(st)
	}
	vh := res.NewVert
	cells := m.NumCellsAllocated()

	inj := faultinject.New(faultinject.Config{
		Seed:  1,
		Rates: map[faultinject.Point]float64{faultinject.LockDeny: 1},
	})
	restore := faultinject.Enable(inj)
	_, ist := w.Insert(v3(0.25, 0.25, 0.25), KindCircum, m.FirstCell())
	_, rst := w.Remove(vh)
	restore()
	if ist != Conflict || rst != Conflict || w.Stats.Rollbacks != 2 || w.ConflictTid != -1 {
		t.Fatalf("under a total denial storm: insert %v, remove %v, %d rollbacks, conflict tid %d",
			ist, rst, w.Stats.Rollbacks, w.ConflictTid)
	}
	if inj.Fired(faultinject.LockDeny) != 2 {
		t.Errorf("%d denials fired, want one per operation", inj.Fired(faultinject.LockDeny))
	}
	if m.NumCellsAllocated() != cells || m.Verts.At(vh).Dead() {
		t.Error("a rolled-back operation touched the mesh")
	}
	if _, st := w.Insert(v3(0.25, 0.25, 0.25), KindCircum, m.FirstCell()); st != OK {
		t.Fatalf("insert after the storm: %v", st)
	}
	if _, st := w.Remove(vh); st != OK {
		t.Fatalf("remove after the storm: %v", st)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelCountsPinned replays the kernel section of the benchmark's
// traced pass at its default seed (go run ./bench -trace 1: one Worker,
// 20k seeded points into the unit box, every tenth inserted vertex
// removed) and pins the exact counters behind delaunay.walk_steps_per_op
// (61.87), delaunay.cavity_cells_per_op (19.74) and
// delaunay.locks_per_op (27.03). With one worker they do not depend on
// timing, so any drift is an algorithmic change: a different walk, a
// different cavity, or — what apex locking must not do — a different
// lock set. The totals were recorded on the commit before apex locking
// and plain initialization landed (a776b64).
func TestKernelCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("22k single-goroutine operations: nothing for the race detector, which is who runs -short")
	}
	rng := rand.New(rand.NewSource(1))
	// The traced pass draws its predicate tuples from the same stream
	// first: 10^5 of them, alternately five random points and a lattice
	// offset plus a corner permutation.
	for i := 0; i < 100_000; i++ {
		if i%2 == 0 {
			for j := 0; j < 15; j++ {
				rng.Float64()
			}
			continue
		}
		rng.Intn(64)
		rng.Intn(64)
		rng.Intn(64)
		rng.Perm(8)
	}
	pts := make([]geom.Vec3, 20_000)
	for i := range pts {
		pts[i] = v3(rng.Float64(), rng.Float64(), rng.Float64())
	}

	m := unitBox()
	w := m.NewWorker(0)
	defer w.Release()
	var verts []arena.Handle
	start := m.FirstCell()
	for _, p := range pts {
		res, st := w.Insert(p, KindCircum, start)
		if st != OK {
			t.Fatalf("insert: %v", st)
		}
		verts = append(verts, res.NewVert)
		start = res.Created[0]
	}
	ins := w.Stats
	for i := 0; i < len(verts); i += 10 {
		w.Remove(verts[i]) // Failed is legitimate (a cospherical link)
	}

	type counts struct{ inserts, removals, walkSteps, cavityCells, locks int64 }
	got := counts{ins.Inserts, w.Stats.Removals, ins.WalkSteps, ins.CavityCells, w.Stats.LocksAcquired}
	want := counts{inserts: 20_000, removals: 2000, walkSteps: 1_237_391, cavityCells: 394_725, locks: 594_669}
	if got != want {
		t.Errorf("kernel counts %+v, pinned %+v", got, want)
	}
}

// TestWalkersCrossPublishedCells: lock-free locate walks through cells
// the other goroutine has just created. A new star is initialized and
// wired with plain stores and becomes reachable through one atomic
// store per boundary face; the walker's atomic load of that neighbor
// pointer is all that orders its reads of the new cells' fields. Run
// under -race, an unordered pair would be reported.
func TestWalkersCrossPublishedCells(t *testing.T) {
	m := unitBox()
	inserts := 1500
	if testing.Short() {
		inserts = 400
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	var located, crossed atomic.Int64

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		w := m.NewWorker(0)
		rng := rand.New(rand.NewSource(7))
		start := m.FirstCell()
		var mine []arena.Handle
		for i := 0; i < inserts; i++ {
			res, st := w.Insert(v3(rng.Float64(), rng.Float64(), rng.Float64()), KindCircum, start)
			if st != OK {
				// The walkers take no locks, so nothing can deny this one.
				t.Errorf("insert %d: %v", i, st)
				return
			}
			mine = append(mine, res.NewVert)
			start = res.Created[0]
			if i%8 == 7 { // fills are published the same way
				if _, st := w.Remove(mine[i-3]); st != OK && st != Failed {
					t.Errorf("remove: %v", st)
					return
				}
				start = m.FirstCell()
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		w := m.NewWorker(1)
		rng := rand.New(rand.NewSource(8))
		boot := arena.Handle(m.NumCellsAllocated())
		for !done.Load() {
			// The located cell and its neighbors are read after Locate
			// returns: one epoch section covers the walk and the reads,
			// so the mutator cannot reuse their slots meanwhile.
			w.Pin()
			// Start from the newest cell the mutator announced, so most
			// steps are taken on cells it created moments ago.
			h, st := w.Locate(v3(rng.Float64(), rng.Float64(), rng.Float64()), m.FirstCell())
			if st != OK {
				w.Unpin()
				continue // Stale: the start died underfoot
			}
			located.Add(1)
			if h > boot {
				crossed.Add(1)
			}
			c := m.Cells.At(h)
			for f := 0; f < 4; f++ {
				if nb := c.Neighbor(f); nb != arena.Nil {
					n := m.Cells.At(nb)
					_, _, _ = n.V, n.CC, n.Dead()
				}
			}
			w.Unpin()
		}
	}()
	wg.Wait()

	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if located.Load() == 0 || crossed.Load() == 0 {
		t.Fatalf("walker located %d points, %d of them in cells created during the test", located.Load(), crossed.Load())
	}
}
