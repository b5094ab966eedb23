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
//
// A cell costs one pointer while it is empty: a bucket is attached to
// it by its first Add, so what a grid holds follows its points, not
// its box.
type Grid struct {
	lo         geom.Vec3
	inv        float64 // 1 / cell size
	nx, ny, nz int
	cells      []atomic.Pointer[bucket] // nil while the cell is empty
	single     bool

	// mu serialises attaching buckets on a shared grid, and Len's
	// walk of pool with them. pool holds every bucket the grid has
	// made: pool[:attached] are attached to cells, the rest are spares
	// Reset detached, slice capacity kept.
	mu       sync.Mutex
	pool     []*bucket
	attached int
}

type bucket struct {
	mu   sync.Mutex
	cell int32 // index of the cell the bucket is attached to
	pts  []entry
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
// cell array is kept when it is large enough, and every bucket is kept
// as a spare with its slice capacity, so a session alternating between
// image shapes allocates for the largest once. It must not race with
// any other use of the grid.
func (g *Grid) Reshape(lo, hi geom.Vec3, cellSize float64) {
	if cellSize <= 0 {
		panic("spatial: non-positive cell size")
	}
	g.Reset() // while the attached buckets' cell indices still hold
	span := hi.Sub(lo)
	g.lo, g.inv = lo, 1/cellSize
	g.nx = int(math.Ceil(span.X/cellSize)) + 1
	g.ny = int(math.Ceil(span.Y/cellSize)) + 1
	g.nz = int(math.Ceil(span.Z/cellSize)) + 1
	if n := g.nx * g.ny * g.nz; n <= cap(g.cells) {
		g.cells = g.cells[:n] // every cell within capacity is nil after Reset
	} else {
		g.cells = make([]atomic.Pointer[bucket], n)
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

// attach returns the bucket of cell c, attaching a spare or a new one
// if the cell has none. On a shared grid two Adds may race to attach
// the same cell, so attaching takes the grid mutex and re-checks.
func (g *Grid) attach(c int) *bucket {
	if !g.single {
		g.mu.Lock()
		defer g.mu.Unlock()
		if b := g.cells[c].Load(); b != nil {
			return b
		}
	}
	if g.attached == len(g.pool) {
		g.pool = append(g.pool, new(bucket))
	}
	b := g.pool[g.attached]
	g.attached++
	b.cell = int32(c)
	g.cells[c].Store(b)
	return b
}

// Add inserts point p with an opaque id.
func (g *Grid) Add(p geom.Vec3, id uint32) {
	i, j, k := g.cellOf(p)
	c := (k*g.ny+j)*g.nx + i
	b := g.cells[c].Load()
	if b == nil {
		b = g.attach(c)
	}
	g.lock(b)
	b.pts = append(b.pts, entry{p, id})
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
// empty cells, so the cell range is walked row by row with no
// callback, an empty cell is passed over with one pointer load and no
// lock (an Add racing with the query may be missed, as it may by a
// query that takes the lock first), and the first hit returns.
func (g *Grid) AnyWithin(p geom.Vec3, r float64) bool {
	r2 := r * r
	i0, j0, k0, i1, j1, k1 := g.span(p, r)
	for k := k0; k <= k1; k++ {
		for j := j0; j <= j1; j++ {
			row := g.cells[(k*g.ny+j)*g.nx:]
			for i := i0; i <= i1; i++ {
				if b := row[i].Load(); b != nil && g.anyInBucket(b, p, r2) {
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
			row := g.cells[(k*g.ny+j)*g.nx:]
			for i := i0; i <= i1; i++ {
				if b := row[i].Load(); b != nil && !g.eachInBucket(b, p, r2, fn) {
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

// Reset empties the grid: it detaches every attached bucket, emptied
// with its slice capacity kept, onto the spares, so a reused grid
// performs no steady-state allocation, and its cost follows the
// occupied cells, not the box. It must not race with any other use of
// the grid, and so takes no locks.
func (g *Grid) Reset() {
	for _, b := range g.pool[:g.attached] {
		g.cells[b.cell].Store(nil)
		b.pts = b.pts[:0]
	}
	g.attached = 0
}

// Len returns the number of stored points (approximate under
// concurrent Adds).
func (g *Grid) Len() int {
	if !g.single {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	n := 0
	for _, b := range g.pool[:g.attached] {
		g.lock(b)
		n += len(b.pts)
		g.unlock(b)
	}
	return n
}
