package delaunay

import (
	"repro/internal/arena"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/predicates"
)

const (
	maxWalkSteps    = 1 << 16
	maxWalkRestarts = 4
)

// Insert speculatively inserts a point at p with the given kind,
// locating it by walking from start (usually the poor cell being
// refined). On OK, the result lists the created and killed cells and
// the new vertex's handle. Any other status leaves the mesh untouched.
func (w *Worker) Insert(p geom.Vec3, kind VertKind, start arena.Handle) (*OpResult, Status) {
	w.reset()

	loc, st := w.locate(p, start)
	if st != OK {
		w.countFailure(st)
		return nil, st
	}

	st = w.growCavity(p, loc)
	if st != OK {
		if st == Conflict {
			w.rollback()
		} else {
			w.unlockAll()
			w.countFailure(st)
		}
		return nil, st
	}

	// Validate the star shape: p must be strictly interior to every
	// boundary face, otherwise connecting p would create a flat cell.
	for _, bf := range w.sc.boundary {
		c := w.m.Cells.At(bf.in)
		a := w.m.Pos(c.V[ftab[bf.face][0]])
		b := w.m.Pos(c.V[ftab[bf.face][1]])
		cc := w.m.Pos(c.V[ftab[bf.face][2]])
		if predicates.Orient3D(a, b, cc, p) <= 0 {
			w.unlockAll()
			w.Stats.FailedOps++
			return nil, Failed
		}
	}

	// Fault-injection sites, both at the point of maximum leverage:
	// every cavity lock is held but the mesh is still untouched, so a
	// panic here must release the locks to leave the partial mesh clean,
	// and a delay here maximizes the contention window other workers
	// see. Both compile to a nil-check when injection is disabled.
	faultinject.Check(faultinject.WorkerPanic)
	faultinject.Sleep(faultinject.CommitDelay)

	w.commitInsert(p, kind)
	return &w.result, OK
}

func (w *Worker) countFailure(st Status) {
	switch st {
	case Stale:
		w.Stats.StaleOps++
	case Failed, Outside:
		w.Stats.FailedOps++
	}
}

// locate walks from start to the cell containing p. It runs lock-free:
// the result is re-validated under locks by growCavity. Stepping onto
// a dead cell restarts the walk from start (the structure changed
// underfoot); a dead start is reported Stale.
func (w *Worker) locate(p geom.Vec3, start arena.Handle) (arena.Handle, Status) {
	if start == arena.Nil {
		return arena.Nil, Stale
	}
	restarts := 0
	cur := start
	for steps := 0; steps < maxWalkSteps; steps++ {
		c := w.m.Cells.At(cur)
		if c.Dead() {
			if cur == start || restarts >= maxWalkRestarts {
				return arena.Nil, Stale
			}
			restarts++
			cur = start
			continue
		}
		w.Stats.WalkSteps++

		moved := false
		off := w.rng.Intn(4)
		for k := 0; k < 4; k++ {
			f := (k + off) & 3
			a := w.m.Pos(c.V[ftab[f][0]])
			b := w.m.Pos(c.V[ftab[f][1]])
			cc := w.m.Pos(c.V[ftab[f][2]])
			if predicates.Orient3D(a, b, cc, p) < 0 {
				nb := c.Neighbor(f)
				if nb == arena.Nil {
					// Off the hull: either p really lies outside the
					// super-tetrahedron, or the lock-free walk crossed
					// a region mutated underfoot. Restarts separate
					// the two (a genuine Outside reproduces).
					if restarts >= maxWalkRestarts {
						return arena.Nil, Outside
					}
					restarts++
					cur = start
					moved = true
					break
				}
				cur = nb
				moved = true
				break
			}
		}
		if !moved {
			return cur, OK
		}
	}
	return arena.Nil, Stale
}

// conflict reports whether p lies inside the (symbolically perturbed)
// circumsphere of cell c. The symbolic perturbation makes the answer
// unambiguous for cospherical configurations and identical for every
// observer, so the mesh is at all times the unique perturbed Delaunay
// triangulation of its live vertices — the property vertex removal
// relies on to re-derive a hole filling that matches the shared mesh.
func (w *Worker) conflict(c *Cell, p geom.Vec3) bool {
	return predicates.InSphereSoS(
		w.m.Pos(c.V[0]), w.m.Pos(c.V[1]), w.m.Pos(c.V[2]), w.m.Pos(c.V[3]), p) > 0
}

// Cavity BFS marks in w.sc.visited.
const (
	visitCavity  = 1
	visitOutside = 2
)

// growCavity expands the conflict region of p starting from the cell
// loc, locking every touched vertex before reading connectivity
// through it (the speculative-execution protocol). Every cell on the
// worklist is fully locked, so a neighbor across one of its faces needs
// only its apex acquired. On OK, w.sc.cavity lists the conflict cells
// and w.sc.boundary their boundary faces; all their vertices (and the
// apexes of tested outside cells) are locked.
func (w *Worker) growCavity(p geom.Vec3, loc arena.Handle) Status {
	c0 := w.m.Cells.At(loc)
	if !w.lockCell(c0) {
		return Conflict
	}
	if c0.Dead() {
		return Stale
	}
	for i := 0; i < 4; i++ {
		if w.m.Pos(c0.V[i]) == p {
			// Exact duplicate of an existing vertex: the containing
			// cell of a mesh vertex always has it as a corner.
			return Failed
		}
	}
	if !w.conflict(c0, p) {
		// The located cell must be in conflict (p is inside it, hence
		// inside its circumsphere) unless p duplicates a vertex or the
		// walk raced; re-checked here exactly.
		return Failed
	}
	visited := &w.sc.visited
	*visited.at(key1(loc)) = visitCavity
	w.sc.cavity = append(w.sc.cavity, loc)

	// Depth-first expansion; w.sc.cavity doubles as the worklist since
	// appended cells are processed exactly once.
	for i := 0; i < len(w.sc.cavity); i++ {
		ch := w.sc.cavity[i]
		c := w.m.Cells.At(ch)
		for f := 0; f < 4; f++ {
			nb := c.Neighbor(f)
			if nb == arena.Nil {
				// Hull face: a legitimate cavity boundary (the new point
				// connects to it and the new cell becomes a hull cell).
				w.sc.boundary = append(w.sc.boundary, bFace{in: ch, face: f, out: arena.Nil})
				continue
			}
			// One probe per neighbor: a cell seen for the first time is
			// marked through the same slot once it has been tested (an
			// abort in between leaves the slot zero, i.e. unvisited).
			mark := visited.at(key1(nb))
			switch *mark {
			case visitCavity:
				continue
			case visitOutside:
				w.sc.boundary = append(w.sc.boundary, bFace{in: ch, face: f, out: nb})
				continue
			}
			n := w.m.Cells.At(nb)
			if !w.tryLock(apexAcross(c, f, n)) {
				return Conflict
			}
			if n.Dead() {
				return Stale
			}
			if w.conflict(n, p) {
				*mark = visitCavity
				w.sc.cavity = append(w.sc.cavity, nb)
			} else {
				*mark = visitOutside
				w.sc.boundary = append(w.sc.boundary, bFace{in: ch, face: f, out: nb})
			}
		}
	}
	return OK
}

// edgeKey canonicalizes an edge for internal-face matching.
func edgeKey(a, b arena.Handle) tkey {
	if a > b {
		a, b = b, a
	}
	return tkey{ab: uint64(a)<<32 | uint64(b)}
}

// commitInsert performs the irreversible part of an insertion: all
// needed locks are held and validated, so no failure is possible past
// this point.
func (w *Worker) commitInsert(p geom.Vec3, kind VertKind) {
	m := w.m

	// New vertex, born locked by this worker on a shared mesh. Every
	// field is written: after a Reset, arena slots are recycled storage.
	// Nothing can reach it before phase 2, so the stores are plain.
	vh := w.va.Alloc()
	v := m.Verts.At(vh)
	v.Pos = p
	v.Kind = kind
	v.Stamp = m.stamp.Add(1)
	v.flags = 0
	v.incident = 0
	v.lock = 0
	if !m.single {
		v.lock = w.tid + 1
		w.locked = append(w.locked, vh)
	}
	w.result.NewVert = vh

	// One new cell per boundary face: (a, b, c, p), positively
	// oriented because Orient3D(face, p) > 0 was verified.
	// Phase 1: create and fully wire the new star among itself, with
	// plain stores. The new cells stay unreachable from the live mesh
	// until phase 2, so lock-free walkers never observe half-wired
	// connectivity.
	edges := &w.sc.edges
	edges.clear()
	for _, bf := range w.sc.boundary {
		in := m.Cells.At(bf.in)
		a := in.V[ftab[bf.face][0]]
		b := in.V[ftab[bf.face][1]]
		c := in.V[ftab[bf.face][2]]

		nh := w.newCell()
		nc := m.Cells.At(nh)
		nc.init(m, [4]arena.Handle{a, b, c, vh})

		// Across face 3 (= (a,b,c)) lies the old outside cell (or the
		// hull).
		nc.n[3] = uint32(bf.out)

		// Faces 0,1,2 of (a,b,c,p) are internal; each corresponds to
		// one edge of the triangle: face 0 ~ (b,c), face 1 ~ (a,c),
		// face 2 ~ (a,b).
		wire := func(x, y arena.Handle, face int) {
			// The first star cell on an edge waits in the table; the
			// second wires both and empties the slot again.
			other := edges.at(edgeKey(x, y))
			if other.cell != arena.Nil {
				nc.n[face] = uint32(other.cell)
				m.Cells.At(other.cell).n[other.face] = uint32(nh)
				*other = edgeRef{}
			} else {
				*other = edgeRef{nh, face}
			}
		}
		wire(b, c, 0)
		wire(a, c, 1)
		wire(a, b, 2)

		w.result.Created = append(w.result.Created, nh)
	}

	// Phase 2: publish, pointing the surviving outside cells at the
	// new star.
	for i, bf := range w.sc.boundary {
		if bf.out == arena.Nil {
			continue
		}
		out := m.Cells.At(bf.out)
		if j := out.FaceIndex(bf.in); j >= 0 {
			m.publish(out, j, w.result.Created[i])
		}
	}

	// Refresh incident hints (we hold all these vertices' locks).
	for _, nh := range w.result.Created {
		nc := m.Cells.At(nh)
		for i := 0; i < 4; i++ {
			m.Verts.At(nc.V[i]).incident = uint32(nh)
		}
	}

	// Retire the cavity.
	for _, ch := range w.sc.cavity {
		w.retire(ch)
		w.result.Killed = append(w.result.Killed, ch)
	}

	m.firstCell.Store(uint32(w.result.Created[0]))
	w.Stats.Inserts++
	w.Stats.CavityCells += int64(len(w.sc.cavity))
	w.unlockAll()
}

// Locate returns the live cell containing p, walking from start. It is
// the public point-location entry for library users (field probes,
// in-mesh queries); refinement itself uses the internal path. The
// result may be stale immediately under concurrent mutation.
func (w *Worker) Locate(p geom.Vec3, start arena.Handle) (arena.Handle, Status) {
	return w.locate(p, start)
}
