package delaunay

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/geom"
)

// oracleFill is vertex removal's hole re-triangulation as it stood
// before the direct fill, kept as the test oracle: the link vertices
// re-inserted in stamp order into a scratch mesh over the global hull's
// box inflated 4x, the conflict region of the removed vertex's position
// in that local triangulation taken as the fill. It reads m (quiesced)
// without touching it and returns the fill's cells as sorted vertex
// quads, in sorted order, or false wherever that construction failed.
func oracleFill(m *Mesh, vh arena.Handle) ([][4]arena.Handle, bool) {
	v := m.Verts.At(vh)
	ball := []arena.Handle{v.Incident()}
	inBall := map[arena.Handle]bool{v.Incident(): true}
	hole := map[tkey]bool{}
	var link []arena.Handle
	inLink := map[arena.Handle]bool{}
	for i := 0; i < len(ball); i++ {
		c := m.Cells.At(ball[i])
		iv := c.VertIndex(vh)
		for f := 0; f < 4; f++ {
			if f == iv {
				hole[sortedFace(c, f)] = true
				continue
			}
			if nb := c.Neighbor(f); nb != arena.Nil && !inBall[nb] {
				inBall[nb] = true
				ball = append(ball, nb)
			}
		}
		for _, h := range c.V {
			if h != vh && !inLink[h] {
				inLink[h] = true
				link = append(link, h)
			}
		}
	}
	slices.SortFunc(link, func(a, b arena.Handle) int {
		return cmp.Compare(m.Verts.At(a).Stamp, m.Verts.At(b).Stamp)
	})

	span := m.superHi.Sub(m.superLo)
	sm, err := NewMesh(m.superLo.Sub(span.Scale(1.5)), m.superHi.Add(span.Scale(1.5)))
	if err != nil {
		return nil, false
	}
	sm.SetSingleOwner(true)
	sw := sm.NewWorker(0)
	toGlobal := map[arena.Handle]arena.Handle{}
	hint := sm.FirstCell()
	for _, gh := range link {
		res, st := sw.Insert(m.Pos(gh), KindIso, hint)
		if st != OK {
			return nil, false
		}
		toGlobal[res.NewVert] = gh
		hint = res.Created[0]
	}
	loc, st := sw.locate(v.Pos, hint)
	if st != OK {
		return nil, false
	}
	sw.reset()
	st = sw.growCavity(v.Pos, loc)
	sw.unlockAll()
	if st != OK || len(sw.sc.boundary) != len(hole) {
		return nil, false
	}

	// Every conflict cell consists of link vertices, and its faces on
	// the conflict region's boundary are the hole's, each once.
	var fill [][4]arena.Handle
	for _, lch := range sw.sc.cavity {
		var q [4]arena.Handle
		for i, lv := range sm.Cells.At(lch).V {
			g, ok := toGlobal[lv]
			if !ok {
				return nil, false
			}
			q[i] = g
		}
		fill = append(fill, sortedQuad(q))
	}
	for _, bf := range sw.sc.boundary {
		lc := sm.Cells.At(bf.in)
		var tri [3]arena.Handle
		for i, j := range ftab[bf.face] {
			tri[i] = toGlobal[lc.V[j]]
		}
		k := sortedTri(tri)
		if !hole[k] {
			return nil, false
		}
		delete(hole, k)
	}
	slices.SortFunc(fill, compareQuads)
	return fill, true
}

func sortedQuad(q [4]arena.Handle) [4]arena.Handle {
	slices.Sort(q[:])
	return q
}

func compareQuads(a, b [4]arena.Handle) int { return slices.Compare(a[:], b[:]) }

// createdQuads returns the cells a committed removal created, as
// sorted vertex quads in sorted order.
func createdQuads(m *Mesh, res *OpResult) [][4]arena.Handle {
	var out [][4]arena.Handle
	for _, h := range res.Created {
		out = append(out, sortedQuad(m.Cells.At(h).V))
	}
	slices.SortFunc(out, compareQuads)
	return out
}

// TestRemovalFillMatchesOracle is the differential test of vertex
// removal: every Remove, over random and integer-lattice point sets
// (the lattice ones cospherical and coplanar by construction, as voxel
// images make them), must create exactly the cells the scratch-mesh
// construction above would have filled the hole with, and leave a mesh
// that passes Check and CheckDelaunayGlobal. Where the oracle fails
// (one of its stamp-order insertions meets a cospherical, coplanar
// link), Remove may fail too or succeed, but a success must still pass
// both checks. No input tried here makes the oracle fail, so that
// branch is a guard, not a measured case.
func TestRemovalFillMatchesOracle(t *testing.T) {
	type program struct {
		name    string
		seed    int64
		lattice int  // points on a 1/lattice grid; 0 for uniform random
		mixed   bool // alternate blocks of random and lattice points
	}
	programs := []program{
		{"random-1", 1, 0, false}, {"random-2", 2, 0, false},
		{"lattice-4", 3, 4, false}, {"lattice-6", 4, 6, false}, {"lattice-8", 5, 8, false},
		{"mixed-16", 6, 16, true},
	}
	n, removals := 120, 60
	if testing.Short() {
		n, removals = 60, 25
	}
	var matched, oracleFailed int
	for _, pr := range programs {
		rng := rand.New(rand.NewSource(pr.seed))
		drawn := 0
		point := func() geom.Vec3 {
			drawn++
			if pr.lattice == 0 || pr.mixed && drawn/16%2 == 0 {
				return v3(rng.Float64(), rng.Float64(), rng.Float64())
			}
			g, k := float64(pr.lattice), pr.lattice+1
			return v3(float64(rng.Intn(k))/g, float64(rng.Intn(k))/g, float64(rng.Intn(k))/g)
		}
		m := unitBox()
		w := m.NewWorker(0)
		var live []arena.Handle
		start := m.FirstCell()
		insert := func() {
			if res, st := w.Insert(point(), KindCircum, start); st == OK {
				live = append(live, res.NewVert)
				start = res.Created[0]
			}
		}
		for i := 0; i < n; i++ {
			insert()
		}
		for r := 0; r < removals && len(live) > 0; r++ {
			k := rng.Intn(len(live))
			vh := live[k]
			want, ok := oracleFill(m, vh)
			res, st := w.Remove(vh)
			switch {
			case ok && st != OK:
				t.Fatalf("%s removal %d: %v where the oracle fills the hole", pr.name, r, st)
			case ok:
				if got := createdQuads(m, res); !slices.Equal(got, want) {
					t.Fatalf("%s removal %d: fill %v, oracle %v", pr.name, r, got, want)
				}
				matched++
			default:
				oracleFailed++
				if st != OK && st != Failed {
					t.Fatalf("%s removal %d: %v", pr.name, r, st)
				}
			}
			if st == OK {
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := m.Check(); err != nil {
				t.Fatalf("%s removal %d (%v, oracle ok=%v): %v", pr.name, r, st, ok, err)
			}
			if err := m.CheckDelaunayGlobal(); err != nil {
				t.Fatalf("%s removal %d (%v, oracle ok=%v): %v", pr.name, r, st, ok, err)
			}
			if r%3 == 2 {
				insert()
			}
		}
	}
	t.Logf("%d removals matched the oracle's fill; the oracle failed on %d", matched, oracleFailed)
	if matched < len(programs)*removals*9/10 {
		t.Fatalf("only %d of %d removals were compared", matched, len(programs)*removals)
	}
}
