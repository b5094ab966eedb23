package delaunay

import (
	"repro/internal/arena"
	"repro/internal/predicates"
)

// fillFace is the state of one face of a removal's fill, keyed by its
// sorted vertices. A face of the hole boundary has ball set: the
// retiring ball cell that provided it, with out the live cell outside
// the hole (arena.Nil on the hull). A face between two fill cells has
// ball Nil, out the fill cell built on one side and face its index
// there. The face is open until in, the fill cell on the other side,
// is set.
type fillFace struct {
	ball, out, in arena.Handle
	face          int
}

// rewire defers one outside-cell neighbor update to the commit point
// of a removal (the first mutation other workers can observe).
type rewire struct {
	out, oldBall, cell arena.Handle
}

// removeScratch clears the removal state of the worker's pooled scratch.
func (w *Worker) removeScratch() {
	sc := w.sc
	sc.faces.clear()
	sc.linkSeen.clear()
	sc.link = sc.link[:0]
	sc.open = sc.open[:0]
	sc.fill = sc.fill[:0]
	sc.rewires = sc.rewires[:0]
}

// Remove speculatively deletes vertex vh from the triangulation,
// re-triangulating its ball so that the mesh remains Delaunay (paper
// Section 4.2). The hole left by the vertex is filled directly with
// the Delaunay triangulation of its link (see fillHole). If the fill
// cannot be completed (a geometric inconsistency the exact predicates
// are meant to rule out), the operation returns Failed and the mesh is
// untouched. Like Insert, it is one epoch section unless the caller
// has pinned the worker.
func (w *Worker) Remove(vh arena.Handle) (*OpResult, Status) {
	if w.pinned || w.m.single {
		return w.remove(vh)
	}
	w.pin()
	res, st := w.remove(vh)
	w.Unpin()
	return res, st
}

func (w *Worker) remove(vh arena.Handle) (*OpResult, Status) {
	w.reset()
	m := w.m

	if !w.tryLock(vh) {
		w.rollback()
		return nil, Conflict
	}
	v := m.Verts.At(vh)
	if v.Dead() {
		w.unlockAll()
		w.Stats.StaleOps++
		return nil, Stale
	}
	if v.Kind == KindBox {
		w.unlockAll()
		w.Stats.FailedOps++
		return nil, Failed
	}

	// Gather the ball of v. Cells containing v cannot die while we
	// hold v's lock, so the hint is live and the BFS below sees a
	// frozen star; we still must lock every ball vertex because the
	// commit rewires cells incident to them.
	ball := w.sc.cavity[:0] // reuse the cavity scratch buffer
	start := v.Incident()
	if start == arena.Nil {
		w.unlockAll()
		w.Stats.FailedOps++
		return nil, Failed
	}
	if !w.lockCell(m.Cells.At(start)) {
		w.rollback()
		return nil, Conflict
	}
	visited := &w.sc.visited
	*visited.at(key1(start)) = visitCavity
	ball = append(ball, start)
	w.removeScratch()
	faces := &w.sc.faces
	for i := 0; i < len(ball); i++ {
		ch := ball[i]
		c := m.Cells.At(ch)
		iv := c.VertIndex(vh)
		for f := 0; f < 4; f++ {
			nb := c.Neighbor(f)
			if f == iv {
				// Face opposite v: hole boundary, oriented with v (the
				// hole) on its positive side. nb is live: a neighbor
				// pointer read under the face's vertex locks always
				// refers to a live cell.
				*faces.at(sortedFace(c, f)) = fillFace{ball: ch, out: nb}
				w.sc.open = append(w.sc.open, c.Face(f))
				continue
			}
			if nb == arena.Nil {
				// v on the hull: only box corners are hull vertices and
				// those were rejected above; defensive.
				w.unlockAll()
				w.Stats.FailedOps++
				return nil, Failed
			}
			mark := visited.at(key1(nb))
			if *mark != 0 {
				continue
			}
			// c is fully locked: nb adds only its apex.
			if !w.tryLock(apexAcross(c, f, m.Cells.At(nb))) {
				w.rollback()
				return nil, Conflict
			}
			*mark = visitCavity
			ball = append(ball, nb)
		}
	}
	w.sc.cavity = ball

	// Link vertices, in the order the ball lists them.
	linkSeen := &w.sc.linkSeen
	link := w.sc.link
	for _, ch := range ball {
		c := m.Cells.At(ch)
		for _, h := range c.V {
			if h == vh {
				continue
			}
			if seen := linkSeen.at(key1(h)); !*seen {
				*seen = true
				link = append(link, h)
			}
		}
	}
	w.sc.link = link

	fill, ok := w.fillHole(link)
	if !ok {
		// No mutation has happened; release and report.
		w.unlockAll()
		w.Stats.FailedOps++
		return nil, Failed
	}

	// Commit: revive the fill and point the outside cells at it (the
	// first mutation visible to other workers), refresh hints, retire
	// the ball, kill the vertex.
	m.revive(fill)
	for _, r := range w.sc.rewires {
		if r.out == arena.Nil {
			continue
		}
		out := m.Cells.At(r.out)
		if j := out.FaceIndex(r.oldBall); j >= 0 {
			m.publish(out, j, r.cell)
		}
	}
	for _, nh := range fill {
		nc := m.Cells.At(nh)
		for i := 0; i < 4; i++ {
			m.Verts.At(nc.V[i]).incident = uint32(nh)
		}
		w.result.Created = append(w.result.Created, nh)
	}
	for _, ch := range ball {
		w.retire(ch)
		w.result.Killed = append(w.result.Killed, ch)
	}
	m.killVert(v)
	m.firstCell.Store(uint32(fill[0]))
	w.seal()
	w.Stats.Removals++
	w.unlockAll()
	return &w.result, OK
}

// fillHole fills the hole left by a removal with the Delaunay
// triangulation of the link vertices, built face by face (gift
// wrapping). w.sc.open starts as the hole boundary, each face oriented
// with the hole on its positive side. Each open face popped gets the
// link vertex on its positive side whose circumsphere with the face
// holds no other such vertex; the new cell closes that face, and each
// of its other faces either closes a face that is still open — a hole
// face, whose outside cell the commit points at the new cell, or a face
// of an earlier fill cell, wired here — or opens a new face, pushed
// reversed.
//
// InSphereSoS perturbs by lexicographic point rank, so the fill is the
// unique perturbed Delaunay triangulation of the link inside the hole
// — the cells the shared mesh would hold had the vertex never been
// inserted — whatever order the link comes in. Every face is opened
// once and closed once; a face met a third time, or an open face with
// no vertex on its positive side, means the predicates disagreed with
// the mesh, and the fill is abandoned. Once the stack is empty every
// hole face has been matched exactly once and no internal face is open.
//
// The fill is returned unpublished, with w.sc.rewires listing the
// outside cells to point at it. On failure nothing reachable has been
// touched and nobody else can have read the cells allocated so far:
// they are dead (born so on a shared mesh, flagged so on a single-owner
// one, keeping their generation) and go straight back on the free
// list, no limbo needed.
func (w *Worker) fillHole(link []arena.Handle) ([]arena.Handle, bool) {
	m := w.m
	faces := &w.sc.faces
	open := w.sc.open
	fill := w.sc.fill[:0]
	rewires := w.sc.rewires[:0]
	ok := true
	for ok && len(open) > 0 {
		tri := open[len(open)-1]
		open = open[:len(open)-1]
		if faces.get(sortedTri(tri)).in != arena.Nil {
			continue // closed since it was pushed
		}
		apex := w.apex(tri, link)
		if apex == arena.Nil {
			ok = false
			break
		}
		nh := w.newCell()
		nc := m.Cells.At(nh)
		nc.init(m, [4]arena.Handle{tri[0], tri[1], tri[2], apex})
		fill = append(fill, nh)
		// Face 3 is tri itself; faces 0-2 hold the apex.
		for f := 0; f < 4; f++ {
			e := faces.at(sortedFace(nc, f))
			switch {
			case e.ball == arena.Nil && e.out == arena.Nil:
				// New: wait for the cell on its far side.
				*e = fillFace{out: nh, face: f}
				fc := nc.Face(f)
				open = append(open, [3]arena.Handle{fc[0], fc[2], fc[1]})
			case e.in != arena.Nil:
				ok = false
			default:
				e.in = nh
				nc.n[f] = uint32(e.out)
				if e.ball != arena.Nil {
					rewires = append(rewires, rewire{out: e.out, oldBall: e.ball, cell: nh})
				} else {
					m.Cells.At(e.out).n[e.face] = uint32(nh)
				}
			}
		}
	}
	w.sc.open, w.sc.fill, w.sc.rewires = open, fill, rewires
	if !ok {
		if m.single {
			for _, h := range fill {
				m.Cells.At(h).flags |= cellDead
			}
		}
		if !w.keepKilled {
			w.free = append(w.free, fill...)
		}
	}
	return fill, ok
}

// apex returns the link vertex that closes the open face tri: of the
// link vertices strictly on its positive side, the one whose
// circumsphere with tri contains none of the others, or arena.Nil if
// the side is empty.
func (w *Worker) apex(tri [3]arena.Handle, link []arena.Handle) arena.Handle {
	m := w.m
	a, b, c := m.Pos(tri[0]), m.Pos(tri[1]), m.Pos(tri[2])
	best := arena.Nil
	for _, q := range link {
		if q == tri[0] || q == tri[1] || q == tri[2] {
			continue
		}
		p := m.Pos(q)
		if predicates.Orient3D(a, b, c, p) <= 0 {
			continue
		}
		if best == arena.Nil || predicates.InSphereSoS(a, b, c, m.Pos(best), p) > 0 {
			best = q
		}
	}
	return best
}
