package spatial

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

func v3(x, y, z float64) geom.Vec3 { return geom.Vec3{X: x, Y: y, Z: z} }

func TestAddAndQuery(t *testing.T) {
	g := NewGrid(v3(0, 0, 0), v3(10, 10, 10), 1)
	g.Add(v3(5, 5, 5), 1)
	if !g.AnyWithin(v3(5.2, 5, 5), 0.5) {
		t.Error("nearby point not found")
	}
	if g.AnyWithin(v3(8, 8, 8), 0.5) {
		t.Error("distant point found")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestExactRadiusBoundary(t *testing.T) {
	g := NewGrid(v3(0, 0, 0), v3(10, 10, 10), 1)
	g.Add(v3(5, 5, 5), 1)
	if !g.AnyWithin(v3(6, 5, 5), 1.0) {
		t.Error("point at exactly r not included (<= semantics)")
	}
	if g.AnyWithin(v3(6.001, 5, 5), 1.0) {
		t.Error("point just past r included")
	}
}

func TestQueryAcrossBuckets(t *testing.T) {
	g := NewGrid(v3(0, 0, 0), v3(10, 10, 10), 1)
	// Points on both sides of a bucket boundary.
	g.Add(v3(0.99, 5, 5), 1)
	g.Add(v3(1.01, 5, 5), 2)
	count := 0
	g.ForEachWithin(v3(1, 5, 5), 0.1, func(id uint32, q geom.Vec3) bool {
		count++
		return true
	})
	if count != 2 {
		t.Errorf("found %d points across bucket boundary, want 2", count)
	}
}

func TestForEachWithinEarlyStop(t *testing.T) {
	g := NewGrid(v3(0, 0, 0), v3(10, 10, 10), 1)
	for i := 0; i < 10; i++ {
		g.Add(v3(5, 5, 5), uint32(i))
	}
	count := 0
	g.ForEachWithin(v3(5, 5, 5), 1, func(id uint32, q geom.Vec3) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d, want 3", count)
	}
}

func TestOutOfRangePointsClamped(t *testing.T) {
	g := NewGrid(v3(0, 0, 0), v3(10, 10, 10), 1)
	g.Add(v3(-5, -5, -5), 1)
	g.Add(v3(20, 20, 20), 2)
	if !g.AnyWithin(v3(-5, -5, -5), 0.1) {
		t.Error("clamped low point lost")
	}
	if !g.AnyWithin(v3(20, 20, 20), 0.1) {
		t.Error("clamped high point lost")
	}
}

// TestMatchesBruteForce checks both query kinds against a linear scan,
// on a shared grid and on a single-owner one (which differ only in
// taking the bucket locks or not, early stop inside fn included) —
// first as built, then reshaped in place to a smaller box at another
// cell size, then back to a larger one: a reshaped grid must answer as
// a fresh grid over the new box would, with none of the old points.
func TestMatchesBruteForce(t *testing.T) {
	shapes := []struct {
		hi   geom.Vec3
		cell float64
	}{
		{v3(10, 10, 10), 0.8},
		{v3(10, 10, 6.5), 1.7}, // fewer buckets: reuses the array
		{v3(12, 10, 10), 0.8},  // more buckets than ever: reallocates
		{v3(10, 10, 10), 0.8},  // fits the grown array again
	}
	for _, single := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		var g *Grid
		for si, sh := range shapes {
			if g == nil {
				g = NewGrid(v3(0, 0, 0), sh.hi, sh.cell)
			} else {
				g.Reshape(v3(0, 0, 0), sh.hi, sh.cell)
			}
			g.SetSingleOwner(single)
			if fresh := NewGrid(v3(0, 0, 0), sh.hi, sh.cell); g.nx != fresh.nx || g.ny != fresh.ny || g.nz != fresh.nz ||
				g.inv != fresh.inv || g.lo != fresh.lo || len(g.buckets) != len(fresh.buckets) {
				t.Fatalf("shape %d: reshaped geometry differs from NewGrid's", si)
			}
			if g.Len() != 0 {
				t.Fatalf("single-owner=%v shape %d: Len = %d before any Add", single, si, g.Len())
			}
			var pts []geom.Vec3
			for i := 0; i < 500; i++ {
				// Some points fall outside the box and are clamped.
				p := v3(rng.Float64()*11-0.5, rng.Float64()*11-0.5, rng.Float64()*11-0.5)
				pts = append(pts, p)
				g.Add(p, uint32(i))
			}
			if g.Len() != len(pts) {
				t.Fatalf("single-owner=%v shape %d: Len = %d, want %d", single, si, g.Len(), len(pts))
			}
			for trial := 0; trial < 200; trial++ {
				q := v3(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
				r := rng.Float64() * 2
				want := false
				wantCount := 0
				for _, p := range pts {
					if p.Dist(q) <= r {
						want = true
						wantCount++
					}
				}
				if got := g.AnyWithin(q, r); got != want {
					t.Fatalf("single-owner=%v shape %d: AnyWithin(%v, %v) = %v, want %v", single, si, q, r, got, want)
				}
				gotCount := 0
				g.ForEachWithin(q, r, func(uint32, geom.Vec3) bool { gotCount++; return true })
				if gotCount != wantCount {
					t.Fatalf("single-owner=%v shape %d: ForEachWithin count = %d, want %d", single, si, gotCount, wantCount)
				}
				// Stopping early must leave every bucket usable.
				g.ForEachWithin(q, r, func(uint32, geom.Vec3) bool { return false })
			}
		}
		g.Reset()
		if g.Len() != 0 {
			t.Fatalf("single-owner=%v: Len after Reset = %d", single, g.Len())
		}
	}
}

// TestReshapeKeepsStorage: reshaping within the bucket array's capacity
// allocates nothing, bucket slices included.
func TestReshapeKeepsStorage(t *testing.T) {
	g := NewGrid(v3(0, 0, 0), v3(10, 10, 10), 1)
	fill := func() {
		for i := 0; i < 300; i++ {
			g.Add(v3(float64(i%10), float64(i/10%10), float64(i/100)), uint32(i))
		}
	}
	fill()
	g.Reshape(v3(0, 0, 0), v3(10, 10, 7), 1)
	fill()
	if n := testing.AllocsPerRun(10, func() {
		g.Reshape(v3(0, 0, 0), v3(10, 10, 10), 1)
		fill()
		g.Reshape(v3(0, 0, 0), v3(10, 10, 7), 1)
		fill()
	}); n != 0 {
		t.Errorf("alternating shapes allocate %v times per cycle", n)
	}
}

func TestConcurrentAddQuery(t *testing.T) {
	g := NewGrid(v3(0, 0, 0), v3(100, 100, 100), 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				p := v3(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
				if i%2 == 0 {
					g.Add(p, uint32(i))
				} else {
					g.AnyWithin(p, 3)
				}
			}
		}(w)
	}
	wg.Wait()
	if g.Len() != 8*1000 {
		t.Errorf("Len = %d, want 8000", g.Len())
	}
}

func TestNewGridPanicsOnBadCellSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero cell size")
		}
	}()
	NewGrid(v3(0, 0, 0), v3(1, 1, 1), 0)
}
