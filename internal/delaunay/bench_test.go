package delaunay

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
)

// seededMesh returns a unit-box mesh holding n random points and the
// worker that inserted them.
func seededMesh(b *testing.B, n int, rng *rand.Rand) (*Worker, []arena.Handle) {
	b.Helper()
	w := unitBox().NewWorker(0)
	verts := make([]arena.Handle, 0, n)
	start := w.m.FirstCell()
	for len(verts) < n {
		res, st := w.Insert(v3(rng.Float64(), rng.Float64(), rng.Float64()), KindCircum, start)
		if st != OK {
			b.Fatalf("seeding insert: %v", st)
		}
		verts = append(verts, res.NewVert)
		start = res.Created[0]
	}
	return w, verts
}

// BenchmarkInsert times one committed insertion of a uniformly random
// point into a mesh of a few thousand vertices, walking from the cell
// the previous insertion created (so the walk is part of the cost, as
// in the bench trace's delaunay.insert_us).
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w, _ := seededMesh(b, 2000, rng)
	start := w.m.FirstCell()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, st := w.Insert(v3(rng.Float64(), rng.Float64(), rng.Float64()), KindCircum, start)
		if st != OK {
			b.Fatalf("insert: %v", st)
		}
		start = res.Created[0]
	}
}

// BenchmarkRemove times one committed removal: gathering the ball and
// its link, filling the hole face by face and publishing the fill.
func BenchmarkRemove(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	w, verts := seededMesh(b, b.N+2000, rng)
	rng.Shuffle(len(verts), func(i, j int) { verts[i], verts[j] = verts[j], verts[i] })
	if _, st := w.Remove(verts[b.N]); st != OK { // warms the removal tables
		b.Fatalf("remove: %v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := w.Remove(verts[i]); st != OK {
			b.Fatalf("remove: %v", st)
		}
	}
}
