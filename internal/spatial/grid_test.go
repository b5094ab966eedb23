package spatial

import (
	"math"
	"math/rand"
	"runtime"
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
				g.inv != fresh.inv || g.lo != fresh.lo || len(g.cells) != len(fresh.cells) {
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

// TestGridCostsFollowPoints: a grid over the knee-96 box at the δ=2
// cell size (49³ cells) holding a few thousand surface samples
// allocates 8 B per cell plus what its occupied cells hold — not a
// bucket per cell (40 B each). An occupied cell costs its bucket and
// its pool slot (≤ 64 B) and each point at most 128 B: an entry is 32 B
// and append's doubling allocates at most four entries per one kept.
func TestGridCostsFollowPoints(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Vec3, n)
	for i := range pts { // a sphere of radius 30 about the box centre
		z, phi := 2*rng.Float64()-1, 2*math.Pi*rng.Float64()
		r := 30 * math.Sqrt(1-z*z)
		pts[i] = v3(48+r*math.Cos(phi), 48+r*math.Sin(phi), 48+30*z)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGrid(v3(0, 0, 0), v3(96, 96, 96), 2)
	for i, p := range pts {
		g.Add(p, uint32(i))
	}
	runtime.ReadMemStats(&after)
	cells, occupied := len(g.cells), g.attached
	if cells != 49*49*49 {
		t.Fatalf("%d cells, want 49³", cells)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	bound := uint64(8*cells + 64*occupied + 128*n + 1024)
	t.Logf("%d cells, %d occupied, %d points: %d B allocated (%.1f B per cell), bound %d B",
		cells, occupied, n, bytes, float64(bytes)/float64(cells), bound)
	if bytes > bound {
		t.Errorf("grid allocated %d B, want at most %d (8 B per cell plus its occupied buckets)", bytes, bound)
	}
	if g.Len() != n {
		t.Errorf("Len = %d, want %d", g.Len(), n)
	}
}

// TestConcurrentAttach: writers Add into the same empty cells of a
// shared grid at once, racing to attach their buckets, while readers
// query those cells. Afterwards every point is found, Len is exact,
// and each occupied cell has exactly one bucket, attached to it alone.
func TestConcurrentAttach(t *testing.T) {
	const writers, readers, perWriter = 4, 2, 400
	g := NewGrid(v3(0, 0, 0), v3(10, 10, 10), 1)
	// Eight cells, none occupied before the writers start.
	centres := []geom.Vec3{
		v3(2.5, 2.5, 2.5), v3(3.5, 2.5, 2.5), v3(2.5, 3.5, 2.5), v3(2.5, 2.5, 3.5),
		v3(7.5, 7.5, 7.5), v3(6.5, 7.5, 7.5), v3(7.5, 6.5, 7.5), v3(7.5, 7.5, 6.5),
	}
	point := func(w, i int) geom.Vec3 {
		c := centres[(w+i)%len(centres)]
		d := 0.4 * float64(w*perWriter+i) / (writers * perWriter)
		return v3(c.X+d, c.Y-d, c.Z+d/2)
	}
	start := make(chan struct{})
	stop := make(chan struct{})
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				g.Add(point(w, i), uint32(w*perWriter+i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			<-start
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := centres[(r+i)%len(centres)]
				g.AnyWithin(c, 0.6)
				g.ForEachWithin(c, 0.6, func(uint32, geom.Vec3) bool { return true })
				g.Len()
			}
		}(r)
	}
	close(start)
	wg.Wait()
	close(stop)
	rg.Wait()

	if got := g.Len(); got != writers*perWriter {
		t.Errorf("Len = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			p, id := point(w, i), uint32(w*perWriter+i)
			found := false
			g.ForEachWithin(p, 0, func(got uint32, q geom.Vec3) bool {
				found = got == id && q == p
				return !found
			})
			if !found {
				t.Fatalf("point %d at %v not found", id, p)
			}
		}
	}
	if g.attached != len(centres) {
		t.Errorf("%d buckets attached for %d occupied cells", g.attached, len(centres))
	}
	owner := map[int32]*bucket{}
	for _, b := range g.pool[:g.attached] {
		if owner[b.cell] != nil {
			t.Errorf("cell %d has two buckets", b.cell)
		}
		owner[b.cell] = b
		if g.cells[b.cell].Load() != b {
			t.Errorf("cell %d does not point at the bucket attached to it", b.cell)
		}
	}
	for c := range g.cells {
		if b := g.cells[c].Load(); b != nil && owner[int32(c)] != b {
			t.Errorf("cell %d holds a bucket that is not attached", c)
		}
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
