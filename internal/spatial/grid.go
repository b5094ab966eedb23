// Package spatial provides a concurrent uniform hash grid over 3D
// points, used by the refiner for the δ-sparsity check on isosurface
// samples (rule R1) and for locating circumcenters near a new
// isosurface vertex (rule R6).
package spatial

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Grid buckets points by cells of a fixed size. Add and the queries
// may be called concurrently; each bucket is independently locked —
// unless the grid is single-owner (SetSingleOwner), which takes no
// locks at all. Entries are never removed — callers that delete points
// (R6) filter stale ids themselves.
type Grid struct {
	lo         geom.Vec3
	inv        float64 // 1 / cell size
	nx, ny, nz int
	buckets    []bucket
	single     bool
}

type bucket struct {
	mu sync.Mutex
	// n is len(pts), kept readable without the lock: most buckets a
	// query visits are empty, and it passes those over with one load.
	n   atomic.Int32
	pts []entry
}

type entry struct {
	p  geom.Vec3
	id uint32
}

// NewGrid covers the world box [lo, hi] with cells of the given size
// (points outside are clamped to border cells).
func NewGrid(lo, hi geom.Vec3, cellSize float64) *Grid {
	g := new(Grid)
	g.Reshape(lo, hi, cellSize)
	return g
}

// Reshape empties the grid and makes it cover [lo, hi] at the given
// cell size, with exactly the geometry NewGrid chooses for those
// arguments — a reshaped grid behaves identically to a fresh one. The
// bucket array is kept when it is large enough, along with every kept
// bucket's slice capacity, so a session alternating between image
// shapes allocates for the largest once. It must not race with any
// other use of the grid.
func (g *Grid) Reshape(lo, hi geom.Vec3, cellSize float64) {
	if cellSize <= 0 {
		panic("spatial: non-positive cell size")
	}
	span := hi.Sub(lo)
	g.lo, g.inv = lo, 1/cellSize
	g.nx = int(math.Ceil(span.X/cellSize)) + 1
	g.ny = int(math.Ceil(span.Y/cellSize)) + 1
	g.nz = int(math.Ceil(span.Z/cellSize)) + 1
	if n := g.nx * g.ny * g.nz; n <= cap(g.buckets) {
		g.buckets = g.buckets[:n]
		g.Reset()
	} else {
		g.buckets = make([]bucket, n)
	}
}

// SetSingleOwner declares whether, from now until the next call, a
// single goroutine at a time uses the grid; a single-owner grid skips
// the bucket locks. The call itself must not race with any use of the
// grid. Grids start out shared.
func (g *Grid) SetSingleOwner(on bool) { g.single = on }

func (g *Grid) lock(b *bucket) {
	if !g.single {
		b.mu.Lock()
	}
}

func (g *Grid) unlock(b *bucket) {
	if !g.single {
		b.mu.Unlock()
	}
}

func (g *Grid) clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

func (g *Grid) cellOf(p geom.Vec3) (int, int, int) {
	d := p.Sub(g.lo)
	return g.clamp(int(d.X*g.inv), g.nx),
		g.clamp(int(d.Y*g.inv), g.ny),
		g.clamp(int(d.Z*g.inv), g.nz)
}

func (g *Grid) bucketAt(i, j, k int) *bucket {
	return &g.buckets[(k*g.ny+j)*g.nx+i]
}

// Add inserts point p with an opaque id.
func (g *Grid) Add(p geom.Vec3, id uint32) {
	i, j, k := g.cellOf(p)
	b := g.bucketAt(i, j, k)
	g.lock(b)
	b.pts = append(b.pts, entry{p, id})
	b.n.Store(int32(len(b.pts)))
	g.unlock(b)
}

// span returns the inclusive range of bucket coordinates overlapping
// the ball (p, r).
func (g *Grid) span(p geom.Vec3, r float64) (i0, j0, k0, i1, j1, k1 int) {
	i0, j0, k0 = g.cellOf(p.Sub(geom.Vec3{X: r, Y: r, Z: r}))
	i1, j1, k1 = g.cellOf(p.Add(geom.Vec3{X: r, Y: r, Z: r}))
	return
}

// AnyWithin reports whether any stored point lies within distance r of
// p. It is the refiner's most frequent question and mostly answered by
// empty buckets, so the bucket range is walked row by row with no
// callback, empty buckets are passed over without locking (an Add
// racing with the query may be missed, as it may by a query that takes
// the lock first), and the first hit returns.
func (g *Grid) AnyWithin(p geom.Vec3, r float64) bool {
	r2 := r * r
	i0, j0, k0, i1, j1, k1 := g.span(p, r)
	for k := k0; k <= k1; k++ {
		for j := j0; j <= j1; j++ {
			row := g.buckets[(k*g.ny+j)*g.nx:]
			for i := i0; i <= i1; i++ {
				if b := &row[i]; b.n.Load() != 0 && g.anyInBucket(b, p, r2) {
					return true
				}
			}
		}
	}
	return false
}

func (g *Grid) anyInBucket(b *bucket, p geom.Vec3, r2 float64) bool {
	g.lock(b)
	defer g.unlock(b)
	for i := range b.pts {
		if b.pts[i].p.Dist2(p) <= r2 {
			return true
		}
	}
	return false
}

// ForEachWithin calls fn for every stored point within distance r of
// p; fn returning false stops the scan. The bucket lock is held during
// fn, so fn must not call back into the grid.
func (g *Grid) ForEachWithin(p geom.Vec3, r float64, fn func(id uint32, q geom.Vec3) bool) {
	r2 := r * r
	i0, j0, k0, i1, j1, k1 := g.span(p, r)
	for k := k0; k <= k1; k++ {
		for j := j0; j <= j1; j++ {
			for i := i0; i <= i1; i++ {
				if !g.eachInBucket(g.bucketAt(i, j, k), p, r2, fn) {
					return
				}
			}
		}
	}
}

func (g *Grid) eachInBucket(b *bucket, p geom.Vec3, r2 float64, fn func(id uint32, q geom.Vec3) bool) bool {
	g.lock(b)
	defer g.unlock(b)
	for _, e := range b.pts {
		if e.p.Dist2(p) <= r2 && !fn(e.id, e.p) {
			return false
		}
	}
	return true
}

// Reset empties every bucket while keeping the bucket array and the
// per-bucket slice capacity, so a reused grid performs no steady-state
// allocation. It must not race with any other use of the grid, and so
// takes no locks; buckets already empty are only read.
func (g *Grid) Reset() {
	for i := range g.buckets {
		if b := &g.buckets[i]; b.n.Load() != 0 {
			b.pts = b.pts[:0]
			b.n.Store(0)
		}
	}
}

// Len returns the number of stored points (approximate under
// concurrent Adds).
func (g *Grid) Len() int {
	n := 0
	for i := range g.buckets {
		b := &g.buckets[i]
		g.lock(b)
		n += len(b.pts)
		g.unlock(b)
	}
	return n
}
