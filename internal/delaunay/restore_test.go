package delaunay

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/geom"
)

// vertState and cellState are the complete contents of an arena entry,
// read out of a quiesced mesh, so two meshes compare field for field.
type vertState struct {
	h               arena.Handle
	pos             geom.Vec3
	lock            int32
	incident, flags uint32
	stamp           uint64
	kind            VertKind
}

type cellState struct {
	h     arena.Handle
	v     [4]arena.Handle
	n     [4]uint32
	cc    geom.Vec3
	r2    float64
	flags uint32
	aux   uint32
}

// requireSameMesh fails unless got and want agree on every mesh field
// and on every slot of every registered arena chunk (ForEach visits
// unallocated slots too, so a stale entry anywhere shows).
func requireSameMesh(t *testing.T, what string, got, want *Mesh) {
	t.Helper()
	type header struct {
		verts, cells                   int
		stamp                          uint64
		firstCell                      uint32
		boxLo, boxHi, superLo, superHi geom.Vec3
		hullVolume                     float64
	}
	head := func(m *Mesh) header {
		return header{m.Verts.Len(), m.Cells.Len(), m.stamp.Load(), m.firstCell.Load(),
			m.boxLo, m.boxHi, m.superLo, m.superHi, m.hullVolume}
	}
	if g, w := head(got), head(want); g != w {
		t.Fatalf("%s: mesh fields %+v, want %+v", what, g, w)
	}
	verts := func(m *Mesh) (out []vertState) {
		m.Verts.ForEach(func(h arena.Handle, v *Vertex) {
			out = append(out, vertState{h, v.Pos, v.lock, v.incident, v.flags, v.Stamp, v.Kind})
		})
		return out
	}
	cells := func(m *Mesh) (out []cellState) {
		m.Cells.ForEach(func(h arena.Handle, c *Cell) {
			s := cellState{h: h, v: c.V, cc: c.CC, r2: c.R2, n: c.n, flags: c.flags, aux: c.Aux.Load()}
			out = append(out, s)
		})
		return out
	}
	gv, wv := verts(got), verts(want)
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d vertex slots registered, want %d", what, len(gv), len(wv))
	}
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("%s: vertex slot %+v, want %+v", what, gv[i], wv[i])
		}
	}
	gc, wc := cells(got), cells(want)
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d cell slots registered, want %d", what, len(gc), len(wc))
	}
	for i := range gc {
		if gc[i] != wc[i] {
			t.Fatalf("%s: cell slot %+v, want %+v", what, gc[i], wc[i])
		}
	}
}

// churn runs a seeded insert/remove program that also touches what the
// refiner touches on bootstrap cells (Aux, the inside flag), and checks
// the mesh afterwards.
func churn(t *testing.T, m *Mesh, w *Worker, seed int64) {
	t.Helper()
	m.LiveCells(func(_ arena.Handle, c *Cell) {
		c.Aux.Store(0xfeed)
		c.SetInside(true)
	})
	rng := rand.New(rand.NewSource(seed))
	lo, hi := m.Bounds()
	span := hi.Sub(lo)
	start := m.FirstCell()
	var live []arena.Handle
	for i := 0; i < 400; i++ {
		if len(live) > 20 && i%3 == 0 {
			k := rng.Intn(len(live))
			if _, st := w.Remove(live[k]); st == OK {
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			continue
		}
		p := lo.Add(geom.Vec3{X: span.X * rng.Float64(), Y: span.Y * rng.Float64(), Z: span.Z * rng.Float64()})
		if res, st := w.Insert(p, KindCircum, start); st == OK {
			live = append(live, res.NewVert)
			start = res.Created[0]
		} else {
			start = m.FirstCell()
		}
	}
	if w.Stats.Removals == 0 {
		t.Fatal("churn committed no removal")
	}
	if err := m.Check(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
}

// TestResetRestoresBootstrapByCopy is the restore's property: a reset
// over the box of the last bootstrap takes the copy path and leaves the
// mesh indistinguishable from a freshly bootstrapped one — every field
// of every slot, and every handle drawn afterwards — however the mesh
// was dirtied in between; a reset over another box rebuilds and
// re-records, and the way back is a rebuild again.
func TestResetRestoresBootstrapByCopy(t *testing.T) {
	boxA := [2]geom.Vec3{v3(0, 0, 0), v3(1, 1, 1)}
	boxB := [2]geom.Vec3{v3(-2, -1, 0), v3(3, 5, 2)}
	fresh := func(box [2]geom.Vec3) *Mesh {
		t.Helper()
		m, err := NewMesh(box[0], box[1])
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := fresh(boxA)
	w := m.NewWorker(0)
	for round, box := range [][2]geom.Vec3{boxA, boxA, boxB, boxB, boxA} {
		churn(t, m, w, int64(round))
		recorded := m.boot
		sameBox := box[0] == m.boxLo && box[1] == m.boxHi
		if err := m.Reset(box[0], box[1]); err != nil {
			t.Fatal(err)
		}
		if copied := m.boot == recorded; copied != sameBox {
			t.Fatalf("round %d: reset over the same box = %v took the copy path = %v", round, sameBox, copied)
		}
		w.PrepareReuse()
		ref := fresh(box)
		requireSameMesh(t, "after reset", m, ref)
		if err := m.Check(); err != nil {
			t.Fatalf("round %d: restored mesh: %v", round, err)
		}
		// The same program on both must keep them identical: handles
		// come out in the same sequence.
		churn(t, m, w, 99)
		churn(t, ref, ref.NewWorker(0), 99)
		requireSameMesh(t, "after identical churn", m, ref)
	}
}

// TestFailedBootstrapIsNotRestored: a reset that fails must not leave a
// record behind that a later reset over the same box would copy back.
func TestFailedBootstrapIsNotRestored(t *testing.T) {
	m := unitBox()
	if err := m.Reset(v3(1, 1, 1), v3(0, 0, 0)); err == nil {
		t.Fatal("degenerate box accepted")
	}
	if err := m.Reset(v3(1, 1, 1), v3(0, 0, 0)); err == nil {
		t.Fatal("degenerate box accepted the second time")
	}
	if err := m.Reset(v3(0, 0, 0), v3(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	requireSameMesh(t, "after a failed reset", m, unitBox())
}

// TestSteadyStateOpsDoNotAllocate: once a worker's buffers and tables
// are warm, an Insert and a Remove allocate
// nothing, on a shared mesh and on a single-owner one. (A new arena
// chunk every few hundred operations is far below one allocation per
// run, which is what AllocsPerRun reports.)
func TestSteadyStateOpsDoNotAllocate(t *testing.T) {
	for _, single := range []bool{false, true} {
		m := unitBox()
		m.SetSingleOwner(single)
		w := m.NewWorker(0)
		rng := rand.New(rand.NewSource(5))
		start := m.FirstCell()
		var live []arena.Handle
		insert := func() {
			res, st := w.Insert(v3(rng.Float64(), rng.Float64(), rng.Float64()), KindCircum, start)
			if st != OK {
				t.Fatalf("insert: %v", st)
			}
			live = append(live, res.NewVert)
			start = res.Created[0]
		}
		const runs = 200
		for i := 0; i < 3*runs; i++ {
			insert()
		}
		live = slices.Grow(live, runs+1) // the measured inserts must not grow it

		if n := testing.AllocsPerRun(runs, insert); n != 0 {
			t.Errorf("single-owner=%v: Insert allocates %.0f times per operation", single, n)
		}
		removed := 0
		remove := func() {
			if _, st := w.Remove(live[removed]); st != OK {
				t.Fatalf("remove: %v", st)
			}
			removed++
		}
		remove() // warms the removal tables
		if n := testing.AllocsPerRun(runs, remove); n != 0 {
			t.Errorf("single-owner=%v: Remove allocates %.0f times per operation", single, n)
		}
	}
}
