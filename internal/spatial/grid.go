// Package spatial provides a concurrent uniform hash grid over 3D
// points, used by the refiner for the δ-sparsity check on isosurface
// samples (rule R1) and for locating circumcenters near a new
// isosurface vertex (rule R6).
package spatial

import (
	"math"
	"sync"

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
	mu  sync.Mutex
	ids []uint32
	pts []geom.Vec3
}

// NewGrid covers the world box [lo, hi] with cells of the given size
// (points outside are clamped to border cells).
func NewGrid(lo, hi geom.Vec3, cellSize float64) *Grid {
	if cellSize <= 0 {
		panic("spatial: non-positive cell size")
	}
	span := hi.Sub(lo)
	nx := int(math.Ceil(span.X/cellSize)) + 1
	ny := int(math.Ceil(span.Y/cellSize)) + 1
	nz := int(math.Ceil(span.Z/cellSize)) + 1
	return &Grid{
		lo: lo, inv: 1 / cellSize,
		nx: nx, ny: ny, nz: nz,
		buckets: make([]bucket, nx*ny*nz),
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
	b.ids = append(b.ids, id)
	b.pts = append(b.pts, p)
	g.unlock(b)
}

// forBuckets visits the buckets overlapping the ball (p, r).
func (g *Grid) forBuckets(p geom.Vec3, r float64, fn func(*bucket) bool) {
	lo := p.Sub(geom.Vec3{X: r, Y: r, Z: r})
	hi := p.Add(geom.Vec3{X: r, Y: r, Z: r})
	i0, j0, k0 := g.cellOf(lo)
	i1, j1, k1 := g.cellOf(hi)
	for k := k0; k <= k1; k++ {
		for j := j0; j <= j1; j++ {
			for i := i0; i <= i1; i++ {
				if !fn(g.bucketAt(i, j, k)) {
					return
				}
			}
		}
	}
}

// AnyWithin reports whether any stored point lies within distance r of
// p.
func (g *Grid) AnyWithin(p geom.Vec3, r float64) bool {
	r2 := r * r
	found := false
	g.forBuckets(p, r, func(b *bucket) bool {
		g.lock(b)
		for _, q := range b.pts {
			if q.Dist2(p) <= r2 {
				found = true
				break
			}
		}
		g.unlock(b)
		return !found
	})
	return found
}

// ForEachWithin calls fn for every stored point within distance r of
// p; fn returning false stops the scan. The bucket lock is held during
// fn, so fn must not call back into the grid.
func (g *Grid) ForEachWithin(p geom.Vec3, r float64, fn func(id uint32, q geom.Vec3) bool) {
	r2 := r * r
	g.forBuckets(p, r, func(b *bucket) bool {
		g.lock(b)
		for i, q := range b.pts {
			if q.Dist2(p) <= r2 {
				if !fn(b.ids[i], q) {
					g.unlock(b)
					return false
				}
			}
		}
		g.unlock(b)
		return true
	})
}

// Fits reports whether this grid covers the box [lo, hi] at the given
// cell size with exactly the geometry NewGrid would choose — i.e.
// whether a Reset grid behaves identically to a freshly built one for
// those parameters. Clamping means behavior depends only on the
// origin, the cell size, and the bucket dimensions, which is what is
// compared.
func (g *Grid) Fits(lo, hi geom.Vec3, cellSize float64) bool {
	if cellSize <= 0 || g.lo != lo || g.inv != 1/cellSize {
		return false
	}
	span := hi.Sub(lo)
	return g.nx == int(math.Ceil(span.X/cellSize))+1 &&
		g.ny == int(math.Ceil(span.Y/cellSize))+1 &&
		g.nz == int(math.Ceil(span.Z/cellSize))+1
}

// Reset empties every bucket while keeping the bucket array and the
// per-bucket slice capacity, so a reused grid performs no steady-state
// allocation. It must not race with concurrent Adds or queries.
func (g *Grid) Reset() {
	for i := range g.buckets {
		b := &g.buckets[i]
		g.lock(b)
		b.ids = b.ids[:0]
		b.pts = b.pts[:0]
		g.unlock(b)
	}
}

// Len returns the number of stored points (approximate under
// concurrent Adds).
func (g *Grid) Len() int {
	n := 0
	for i := range g.buckets {
		b := &g.buckets[i]
		g.lock(b)
		n += len(b.ids)
		g.unlock(b)
	}
	return n
}
