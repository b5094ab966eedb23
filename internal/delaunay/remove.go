package delaunay

import (
	"cmp"
	"slices"

	"repro/internal/arena"
	"repro/internal/geom"
)

// holeFace records one face of the hole boundary left by removing a
// vertex: the retiring ball cell that provided it and the live cell
// outside the hole (arena.Nil on the hull).
type holeFace struct {
	ball arena.Handle
	out  arena.Handle
}

// rewire defers one outside-cell neighbor update to the commit point
// of a removal (the first mutation other workers can observe).
type rewire struct {
	out     arena.Handle
	oldBall arena.Handle
	cell    arena.Handle
	face    int
}

// removeScratch clears the removal state of the worker's pooled scratch.
func (w *Worker) removeScratch() {
	sc := w.sc
	sc.hole.clear()
	sc.linkSeen.clear()
	sc.toGlobal.clear()
	sc.localToNew.clear()
	sc.link = sc.link[:0]
	sc.fill = sc.fill[:0]
	sc.rewires = sc.rewires[:0]
}

// Remove speculatively deletes vertex vh from the triangulation,
// re-triangulating its ball so that the mesh remains Delaunay (paper
// Section 4.2). The hole left by the vertex is filled with the
// conflict region of the vertex's position inside a *local* Delaunay
// triangulation of its link, built by re-inserting the link vertices
// in their global insertion (timestamp) order — the paper's strategy
// for keeping the local re-triangulation compatible with the shared
// mesh in degenerate configurations. If the local and global
// triangulations still disagree (exactly cospherical links), the
// operation returns Failed and the mesh is untouched.
func (w *Worker) Remove(vh arena.Handle) (*OpResult, Status) {
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
	hole := &w.sc.hole
	for i := 0; i < len(ball); i++ {
		ch := ball[i]
		c := m.Cells.At(ch)
		iv := c.VertIndex(vh)
		for f := 0; f < 4; f++ {
			nb := c.Neighbor(f)
			if f == iv {
				// Face opposite v: hole boundary. nb is live: a
				// neighbor pointer read under the face's vertex locks
				// always refers to a live cell.
				*hole.at(sortedFace(c, f)) = holeFace{ball: ch, out: nb}
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

	// Link vertices, sorted by global insertion stamp.
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
	slices.SortFunc(link, func(a, b arena.Handle) int {
		return cmp.Compare(m.Verts.At(a).Stamp, m.Verts.At(b).Stamp)
	})

	// Every ball cell contributed exactly one hole face.
	fill, st := w.triangulateHole(v.Pos, link, hole, len(ball))
	if st != OK {
		// No mutation has happened; release and report.
		if st == Conflict {
			w.rollback()
		} else {
			w.unlockAll()
			w.countFailure(st)
		}
		return nil, st
	}

	// Commit: publish fill cells (triangulateHole wired them), refresh
	// hints, retire the ball, kill the vertex.
	for _, nh := range fill {
		nc := m.Cells.At(nh)
		for i := 0; i < 4; i++ {
			m.Verts.At(nc.V[i]).incident = uint32(nh)
		}
		w.result.Created = append(w.result.Created, nh)
	}
	for _, ch := range ball {
		m.kill(m.Cells.At(ch))
		w.result.Killed = append(w.result.Killed, ch)
	}
	m.killVert(v)
	m.firstCell.Store(uint32(fill[0]))
	w.Stats.Removals++
	w.unlockAll()
	return &w.result, OK
}

// triangulateHole builds the local Delaunay triangulation of the link
// vertices and instantiates the conflict region of p as new global
// cells, wired internally and to the hole boundary. It returns the new
// cell handles without publishing them (they are unreachable until the
// caller retires the ball). Nothing is mutated on failure: the new
// cells are allocated but never linked, which the append-only arena
// tolerates (they are simply garbage).
func (w *Worker) triangulateHole(
	p geom.Vec3,
	link []arena.Handle,
	hole *table[holeFace],
	holeFaces int,
) ([]arena.Handle, Status) {
	m := w.m

	// Reset the scratch mesh: the global hull's bounding box inflated
	// 4x, so every global vertex — box corners and super-tet corners
	// included — stays strictly interior to the scratch hull. The box
	// depends only on the global box, so after a worker's first removal
	// of a run this restores the recorded bootstrap by copy.
	lo, hi := m.superLo, m.superHi
	span := hi.Sub(lo)
	slo := lo.Sub(span.Scale(1.5))
	shi := hi.Add(span.Scale(1.5))
	if w.scratch == nil {
		sm, err := NewMesh(slo, shi)
		if err != nil {
			return nil, Failed
		}
		// Only this worker's goroutine can ever reach the scratch mesh.
		sm.SetSingleOwner(true)
		w.scratch = sm
		w.scratchW = w.scratch.NewWorker(0)
	} else {
		if err := w.scratch.resetTo(slo, shi); err != nil {
			return nil, Failed
		}
		w.scratchW.va.Reset()
		w.scratchW.ca.Reset()
	}
	sm, sw := w.scratch, w.scratchW

	// Insert link vertices in stamp order, tracking local->global.
	toGlobal := &w.sc.toGlobal
	hint := sm.FirstCell()
	for _, gh := range link {
		res, st := sw.Insert(m.Verts.At(gh).Pos, KindIso, hint)
		if st != OK {
			return nil, Failed
		}
		*toGlobal.at(key1(res.NewVert)) = gh
		hint = res.Created[0]
	}

	// Conflict region of p in the local triangulation.
	loc, st := sw.locate(p, hint)
	if st != OK {
		return nil, Failed
	}
	sw.reset()
	st = sw.growCavity(p, loc)
	sw.unlockAll()
	if st != OK {
		return nil, Failed
	}

	// Every conflict cell must consist purely of link vertices.
	for _, lch := range sw.sc.cavity {
		lc := sm.Cells.At(lch)
		for i := 0; i < 4; i++ {
			if toGlobal.get(key1(lc.V[i])) == arena.Nil {
				return nil, Failed
			}
		}
	}
	// The conflict region's boundary must match the hole boundary
	// exactly: same number of faces, every face present.
	if len(sw.sc.boundary) != holeFaces {
		return nil, Failed
	}

	// Instantiate fill cells.
	localToNew := &w.sc.localToNew
	fill := w.sc.fill[:0]
	for _, lch := range sw.sc.cavity {
		lc := sm.Cells.At(lch)
		nh := w.ca.Alloc()
		var gv [4]arena.Handle
		for i := 0; i < 4; i++ {
			gv[i] = toGlobal.get(key1(lc.V[i]))
		}
		m.Cells.At(nh).init(m, gv)
		*localToNew.at(key1(lch)) = nh
		fill = append(fill, nh)
	}

	w.sc.fill = fill

	// Wire adjacency with plain stores (the fill is still unreachable).
	// Interior faces copy the local structure; boundary faces attach to
	// the hole.
	// discard abandons the (still unpublished) fill cells on a late
	// failure so that post-hoc sweeps do not see them as live.
	discard := func() {
		for _, h := range fill {
			m.Cells.At(h).flags = cellDead
		}
	}
	rewires := w.sc.rewires[:0]
	for _, lch := range sw.sc.cavity {
		lc := sm.Cells.At(lch)
		nh := localToNew.get(key1(lch))
		nc := m.Cells.At(nh)
		for f := 0; f < 4; f++ {
			lnb := lc.Neighbor(f)
			if inner := localToNew.get(key1(lnb)); inner != arena.Nil {
				nc.n[f] = uint32(inner)
				continue
			}
			// A hole face matches once: taking it empties its slot.
			hf := hole.at(sortedFace(nc, f))
			if hf.ball == arena.Nil {
				discard()
				return nil, Failed
			}
			nc.n[f] = uint32(hf.out)
			rewires = append(rewires, rewire{out: hf.out, oldBall: hf.ball, cell: nh, face: f})
			*hf = holeFace{}
		}
	}
	if len(rewires) != holeFaces {
		discard()
		return nil, Failed
	}

	w.sc.rewires = rewires

	// Point the outside cells at the fill. This is the first mutation
	// visible to other workers; all checks have passed.
	for _, r := range rewires {
		if r.out == arena.Nil {
			continue
		}
		out := m.Cells.At(r.out)
		if j := out.FaceIndex(r.oldBall); j >= 0 {
			m.publish(out, j, r.cell)
		}
	}
	return fill, OK
}
