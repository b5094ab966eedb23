package delaunay

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/geom"
)

// TestInterleavingsReclaimSafely runs small sets of overlapping
// Insert/Remove operations under a deterministic scheduler and
// enumerates every interleaving with at most two preemptions. Each
// operation runs on its own goroutine and Worker, but only one runs at
// a time: a worker hands control back at every tryLock (through
// lockHook) and after every operation, and the scheduler picks who goes
// next. Each interleaving is replayed from a fresh mesh, and after each
// one:
//
//   - Check and CheckDelaunayGlobal pass, and the live cells are those
//     a lone worker gets by committing the same operations in the same
//     order: a rolled-back operation left no trace;
//   - a rolled-back operation leaves every cell and vertex exactly as
//     they were when it found its lock taken;
//   - no operation returns holding a vertex lock;
//   - no operation, between its first read of a cell and its return,
//     sees that cell's slot rebuilt for another cell (its generation
//     moves) — the property epoch reclamation exists to keep.
//
// The meshes are cubic lattices, so nearly every cavity, ball and fill
// meets cospherical vertices; the scheduled workers build them, so each
// starts with killed cells in limbo. Every set runs with reuse (the
// default) and with killed cells kept in place, never reused.
func TestInterleavingsReclaimSafely(t *testing.T) {
	bound := 2
	if testing.Short() {
		bound = 1
	}
	for _, sc := range schedScenarios {
		for _, keep := range []bool{false, true} {
			name := sc.name + "/reuse"
			if keep {
				name = sc.name + "/no-reuse"
			}
			t.Run(name, func(t *testing.T) {
				n, reused := exploreSchedules(t, sc, keep, bound, map[string]*replay{})
				t.Logf("%d interleavings, %d of them reused a killed slot", n, reused)
				if !keep && reused == 0 {
					t.Error("no interleaving reused a slot: the reclamation path went unexercised")
				}
			})
		}
	}
}

// schedOp is one operation of a scheduled thread: an insertion at p, or
// the removal of the lattice vertex at p.
type schedOp struct {
	remove bool
	p      geom.Vec3
}

func ins(x, y, z float64) schedOp { return schedOp{p: v3(x, y, z)} }
func rem(x, y, z float64) schedOp { return schedOp{remove: true, p: v3(x, y, z)} }

type schedScenario struct {
	name    string
	threads [][]schedOp
}

// The inner cube of the lattice (below) has its corners at 1/4 and 3/4:
// its center and face centers are cospherical with four or eight of
// them, and so is every corner's removal link.
var schedScenarios = []schedScenario{
	// The second insertion of the first thread can reuse the cells its
	// first one killed while the other thread is still walking there.
	{"insert-insert", [][]schedOp{
		{ins(0.5, 0.5, 0.5), ins(0.5, 0.5, 0.25)},
		{ins(0.375, 0.5, 0.5)},
	}},
	{"remove-remove", [][]schedOp{
		{rem(0.25, 0.25, 0.25), ins(0.5, 0.5, 0.5)},
		{rem(0.75, 0.75, 0.75)},
	}},
	{"three-threads", [][]schedOp{
		{ins(0.5, 0.5, 0.5)},
		{rem(0.25, 0.25, 0.75)},
		{ins(0.5, 0.25, 0.5)},
	}},
}

// latticeMesh is the unit box with the cube {1/4, 3/4}^3 inserted, its
// corners dealt round-robin to the given workers, so that each worker
// ends the build with the cells its last insertions killed in limbo
// (or, kept, in place). It returns the corners' handles by position,
// and every cell it created.
func latticeMesh(t *testing.T, ws []*Worker) (*Mesh, map[geom.Vec3]arena.Handle, []arena.Handle) {
	m := ws[0].m
	verts := map[geom.Vec3]arena.Handle{}
	var created []arena.Handle
	i := 0
	for _, x := range []float64{0.25, 0.75} {
		for _, y := range []float64{0.25, 0.75} {
			for _, z := range []float64{0.25, 0.75} {
				p := v3(x, y, z)
				res, st := ws[i%len(ws)].Insert(p, KindCircum, m.FirstCell())
				if st != OK {
					t.Fatalf("lattice point %v: %v", p, st)
				}
				verts[p] = res.NewVert
				created = append(created, res.Created...)
				i++
			}
		}
	}
	return m, verts, created
}

// apply runs op on w, starting insertions from the newest cell.
func apply(m *Mesh, w *Worker, verts map[geom.Vec3]arena.Handle, op schedOp) (*OpResult, Status) {
	if op.remove {
		return w.Remove(verts[op.p])
	}
	return w.Insert(op.p, KindCircum, m.FirstCell())
}

// replay is what a lone worker makes of one sequence of commits: its
// live cells, and whether its mesh is globally Delaunay.
type replay struct {
	cells []posCell
	err   error
}

// schedThread is one scheduled goroutine.
type schedThread struct {
	w      *Worker
	ops    []schedOp
	resume chan struct{}
	done   bool

	// The operation in flight: the generation each cell it has read
	// had when the scheduler first saw it, and the mesh as it was when
	// the operation last found a vertex lock taken.
	inOp    bool
	gens    map[arena.Handle]uint32
	blocked *meshImage
}

// schedRun is one execution of a scenario under a given schedule.
type schedRun struct {
	t       *testing.T
	m       *Mesh
	slots   []arena.Handle             // every cell slot handed out, some twice
	bootV   []arena.Handle             // the bootstrap's vertices
	verts   map[geom.Vec3]arena.Handle // the lattice vertices
	newV    []arena.Handle             // vertices the operations inserted
	threads []*schedThread
	byW     map[*Worker]*schedThread
	events  chan struct{} // a thread yielded or finished
	commits []schedOp
	reused  bool
	failed  bool
}

// decision is one scheduling point of an execution: who could run, who
// did, who had been running, and the preemptions spent before it.
type decision struct {
	runnable []int
	chosen   int
	cur      int
	preempts int
}

// exploreSchedules enumerates the scenario's interleavings with at most
// bound preemptions, depth first: each execution follows a prefix of
// choices, then keeps running the current thread while it can, and
// every untaken alternative at a point past the prefix becomes a new
// prefix. It returns how many interleavings ran, and in how many a
// killed slot was reused.
func exploreSchedules(t *testing.T, sc schedScenario, keep bool, bound int, replays map[string]*replay) (runs, reused int) {
	prev := lockHook
	defer func() { lockHook = prev }()
	// One mesh and one worker per thread serve every interleaving: a
	// Reset rewinds the mesh to its bootstrap and PrepareReuse readies
	// the workers as a fresh run would, recycling the arena chunks.
	m := unitBox()
	ws := make([]*Worker, len(sc.threads))
	for i := range ws {
		ws[i] = m.NewWorker(i)
		ws[i].keepKilled = keep
	}
	// The bootstrap's slots, live and dead, are the same after every
	// Reset.
	var boot, bootV []arena.Handle
	m.Cells.ForEach(func(h arena.Handle, c *Cell) {
		if c.V[0] != arena.Nil {
			boot = append(boot, h)
		}
	})
	m.LiveVerts(func(h arena.Handle, _ *Vertex) { bootV = append(bootV, h) })
	checked := map[string]bool{}
	stack := [][]int{nil}
	for len(stack) > 0 {
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, hi := m.Bounds()
		if err := m.Reset(lo, hi); err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			w.PrepareReuse()
		}
		trace, r := runSchedule(t, sc, ws, prefix, slices.Clone(boot), bootV, replays, checked)
		runs++
		if r.reused {
			reused++
		}
		if r.failed {
			t.Fatalf("schedule %v failed (see above)", choices(trace))
		}
		for i := len(prefix); i < len(trace); i++ {
			d := trace[i]
			for _, alt := range d.runnable {
				if alt == d.chosen {
					continue
				}
				cost := d.preempts
				if d.cur >= 0 && slices.Contains(d.runnable, d.cur) && alt != d.cur {
					cost++
				}
				if cost <= bound {
					stack = append(stack, append(choices(trace[:i]), alt))
				}
			}
		}
	}
	return runs, reused
}

func choices(trace []decision) []int {
	out := make([]int, len(trace))
	for i, d := range trace {
		out[i] = d.chosen
	}
	return out
}

// runSchedule executes the scenario once, following prefix.
func runSchedule(t *testing.T, sc schedScenario, ws []*Worker, prefix []int, slots, bootV []arena.Handle,
	replays map[string]*replay, checked map[string]bool) ([]decision, *schedRun) {
	m, verts, created := latticeMesh(t, ws)
	r := &schedRun{t: t, m: m, slots: append(slots, created...), bootV: bootV, verts: verts,
		byW: map[*Worker]*schedThread{}, events: make(chan struct{})}
	for i, ops := range sc.threads {
		th := &schedThread{w: ws[i], ops: ops, resume: make(chan struct{})}
		r.threads = append(r.threads, th)
		r.byW[th.w] = th
	}
	lockHook = func(w *Worker, vh arena.Handle) {
		if th := r.byW[w]; th != nil {
			r.yield(th)
			// The lock is taken: the operation is about to roll back.
			if l := m.Verts.At(vh).LockedBy(); l >= 0 && l != w.ID() {
				th.blocked = snapMesh(m)
			}
		}
	}
	for i, th := range r.threads {
		go r.runThread(i, th)
	}

	var trace []decision
	cur, preempts := -1, 0
	for {
		var runnable []int
		for i, th := range r.threads {
			if !th.done {
				runnable = append(runnable, i)
			}
		}
		if len(runnable) == 0 {
			break
		}
		pick := runnable[0]
		switch {
		case len(trace) < len(prefix):
			pick = prefix[len(trace)]
		case cur >= 0 && !r.threads[cur].done:
			pick = cur
		}
		trace = append(trace, decision{runnable: runnable, chosen: pick, cur: cur, preempts: preempts})
		if cur >= 0 && !r.threads[cur].done && pick != cur {
			preempts++
		}
		r.threads[pick].resume <- struct{}{}
		<-r.events
		cur = pick
		r.checkReaders()
	}
	lockHook = nil
	r.checkFinal(ws[0].keepKilled, replays, checked)
	return trace, r
}

// yield hands control back to the scheduler and waits to be resumed.
func (r *schedRun) yield(th *schedThread) {
	r.events <- struct{}{}
	<-th.resume
}

func (r *schedRun) runThread(i int, th *schedThread) {
	<-th.resume
	for k, op := range th.ops {
		th.inOp, th.gens, th.blocked = true, map[arena.Handle]uint32{}, nil
		res, st := apply(r.m, th.w, r.verts, op)
		if st == OK && res.NewVert != arena.Nil {
			r.newV = append(r.newV, res.NewVert)
		}
		if st == OK {
			r.slots = append(r.slots, res.Created...)
		}
		if st == OK {
			for _, h := range res.Created {
				if r.m.Cells.At(h).Gen() > 1 {
					r.reused = true
				}
			}
		}
		r.checkReader(th) // the commit itself must not rebuild a cell it read
		th.inOp = false
		switch st {
		case OK:
			r.commits = append(r.commits, op)
		case Conflict:
			if th.blocked == nil {
				r.errorf("thread %d: %v rolled back with no lock taken", i, op)
			} else if diff := th.blocked.diff(snapMesh(r.m)); diff != "" {
				r.errorf("thread %d: rolled-back %v changed the mesh: %s", i, op, diff)
			}
		}
		for _, h := range r.allVerts() {
			if r.m.Verts.At(h).LockedBy() == th.w.ID() {
				r.errorf("thread %d: %v returned %v holding the lock of vertex %d", i, op, st, h)
			}
		}
		if k < len(th.ops)-1 {
			r.yield(th)
		}
	}
	th.done = true
	r.events <- struct{}{}
}

func (r *schedRun) errorf(format string, args ...any) {
	r.failed = true
	r.t.Errorf(format, args...)
}

// checkReaders runs checkReader for every operation in flight.
func (r *schedRun) checkReaders() {
	for _, th := range r.threads {
		if th.inOp {
			r.checkReader(th)
		}
	}
}

// checkReader records the generation of every cell the thread's
// operation has read so far (the keys of its visited table: the
// located cell, every cavity or ball cell and every neighbor probed),
// and reports a cell whose generation has moved since: its slot was
// rebuilt while the operation could still read it.
func (r *schedRun) checkReader(th *schedThread) {
	vis := &th.w.sc.visited
	for i := range vis.slots {
		s := &vis.slots[i]
		if s.gen != vis.gen {
			continue
		}
		h := arena.Handle(s.k.ab)
		g := r.m.Cells.At(h).Gen()
		if old, ok := th.gens[h]; !ok {
			th.gens[h] = g
		} else if old != g {
			r.errorf("worker %d read cell %d at generation %d, and its slot was rebuilt (generation %d) before the operation ended",
				th.w.ID(), h, old, g)
		}
	}
}

func (r *schedRun) allVerts() []arena.Handle {
	out := slices.Clone(r.newV)
	for _, h := range r.verts {
		out = append(out, h)
	}
	return out
}

// checkFinal checks the mesh an interleaving left. Check runs once per
// distinct mesh (see structure). Its live cells must be those a lone
// worker makes of the same commits in the same order (replayed once per
// distinct sequence); CheckDelaunayGlobal depends on nothing else, so
// it runs on the replay.
func (r *schedRun) checkFinal(keep bool, replays map[string]*replay, checked map[string]bool) {
	m := r.m
	if key := r.structure(); key == "" || !checked[key] {
		if err := m.Check(); err != nil {
			r.errorf("Check: %v", err)
		} else if key != "" {
			checked[key] = true
		}
	}
	for _, h := range r.allVerts() {
		if l := m.Verts.At(h).LockedBy(); l >= 0 {
			r.errorf("vertex %d still locked by worker %d", h, l)
		}
	}
	key := fmt.Sprint(r.commits)
	ref := replays[key]
	if ref == nil {
		rm := unitBox()
		w := rm.NewWorker(0)
		w.keepKilled = keep
		_, verts, _ := latticeMesh(r.t, []*Worker{w})
		for _, op := range r.commits {
			if _, st := apply(rm, w, verts, op); st != OK {
				r.errorf("replay of %v: %v", op, st)
			}
		}
		ref = &replay{cells: posCells(rm), err: rm.CheckDelaunayGlobal()}
		replays[key] = ref
	}
	if ref.err != nil {
		r.errorf("CheckDelaunayGlobal after %v: %v", r.commits, ref.err)
	}
	if got := posCells(m); !slices.EqualFunc(got, ref.cells, func(a, b posCell) bool { return a == b }) {
		r.errorf("the interleaving left %d live cells, the replay of its %d commits %d, and they differ",
			len(got), len(r.commits), len(ref.cells))
	}
}

// structure returns every field Check reads — each live cell's
// vertices, neighbors and flags, each vertex's position, hint and
// flag — as a string, or "" when the run's slot accounting does not
// cover the whole arena: only then could a live cell hide outside it.
func (r *schedRun) structure() string {
	for _, th := range r.threads {
		r.slots = append(r.slots, th.w.limbo...)
		r.slots = append(r.slots, th.w.free...)
	}
	slices.Sort(r.slots)
	r.slots = slices.Compact(r.slots)
	verts := append(r.allVerts(), r.bootV...)
	if len(r.slots) != r.m.NumCellsAllocated() || len(verts) != r.m.NumVerts() {
		return ""
	}
	le := binary.LittleEndian
	var b []byte
	for _, h := range r.slots {
		c := r.m.Cells.At(h)
		if c.Dead() {
			continue
		}
		b = le.AppendUint32(b, uint32(h))
		for i := 0; i < 4; i++ {
			b = le.AppendUint32(b, uint32(c.V[i]))
			b = le.AppendUint32(b, c.n[i])
		}
		b = le.AppendUint32(b, c.flags)
	}
	slices.Sort(verts)
	for _, h := range verts {
		v := r.m.Verts.At(h)
		b = le.AppendUint32(b, uint32(h))
		b = le.AppendUint64(b, math.Float64bits(v.Pos.X))
		b = le.AppendUint64(b, math.Float64bits(v.Pos.Y))
		b = le.AppendUint64(b, math.Float64bits(v.Pos.Z))
		b = le.AppendUint32(b, v.incident)
		b = le.AppendUint32(b, v.flags)
	}
	return string(b)
}

// posCell is a live cell as its sorted vertex positions, which two
// meshes built in different handle orders share.
type posCell [4]geom.Vec3

func cmpVec(a, b geom.Vec3) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.Z, b.Z)
}

// reachable visits every live cell, walking the adjacency from the
// newest one: on these small meshes, far cheaper than LiveCells' sweep
// of whole arena chunks.
func reachable(m *Mesh, fn func(arena.Handle, *Cell)) {
	seen := map[arena.Handle]bool{m.FirstCell(): true}
	queue := []arena.Handle{m.FirstCell()}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		c := m.Cells.At(h)
		fn(h, c)
		for i := 0; i < 4; i++ {
			if nb := c.Neighbor(i); nb != arena.Nil && !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
}

func posCells(m *Mesh) []posCell {
	var out []posCell
	reachable(m, func(_ arena.Handle, c *Cell) {
		var pc posCell
		for i, h := range c.V {
			pc[i] = m.Pos(h)
		}
		slices.SortFunc(pc[:], cmpVec)
		out = append(out, pc)
	})
	slices.SortFunc(out, func(a, b posCell) int {
		for i := range a {
			if c := cmpVec(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	return out
}

// meshImage is every live cell of a mesh and every vertex, lock words
// aside.
type meshImage struct {
	cells map[arena.Handle]cellImage
	verts map[arena.Handle]vertImage
}

type cellImage struct {
	v     [4]arena.Handle
	n     [4]arena.Handle
	flags uint32
	aux   uint32
}

type vertImage struct {
	incident arena.Handle
	dead     bool
}

func snapMesh(m *Mesh) *meshImage {
	im := &meshImage{cells: map[arena.Handle]cellImage{}, verts: map[arena.Handle]vertImage{}}
	reachable(m, func(h arena.Handle, c *Cell) {
		ci := cellImage{v: c.V, flags: c.flags, aux: c.Aux.Load()}
		for i := range ci.n {
			ci.n[i] = c.Neighbor(i)
		}
		im.cells[h] = ci
		for _, vh := range c.V {
			v := m.Verts.At(vh)
			im.verts[vh] = vertImage{incident: v.Incident(), dead: v.Dead()}
		}
	})
	return im
}

// diff describes the first slot that differs between two images, ""
// if none does.
func (a *meshImage) diff(b *meshImage) string {
	if len(a.cells) != len(b.cells) || len(a.verts) != len(b.verts) {
		return fmt.Sprintf("%d cells and %d vertices became %d and %d", len(a.cells), len(a.verts), len(b.cells), len(b.verts))
	}
	for h, c := range a.cells {
		if b.cells[h] != c {
			return fmt.Sprintf("cell %d: %+v became %+v", h, c, b.cells[h])
		}
	}
	for h, v := range a.verts {
		if b.verts[h] != v {
			return fmt.Sprintf("vertex %d: %+v became %+v", h, v, b.verts[h])
		}
	}
	return ""
}
