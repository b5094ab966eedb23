// Package edt computes the exact Euclidean distance transform and
// feature transform of a segmented image's surface voxels, in
// parallel.
//
// PI2M needs, for an arbitrary query point p, the surface voxel
// closest to p (paper Section 3: the EDT "returns the surface voxel q
// which is closest to p"); the refiner then marches the ray pq to find
// the exact isosurface point. The paper uses the parallel Maurer
// filter of Staubs et al. [56]; this implementation uses the same
// dimension-by-dimension exact decomposition (lower envelopes of
// parabolas per scan line, Felzenszwalb-Huttenlocher form of the
// Maurer recurrence), parallelized across scan lines, which produces
// the identical exact transform and likewise scales linearly with the
// number of workers.
package edt

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/img"
)

// Transform holds the exact feature transform of an image: for every
// voxel, the linear index of the nearest surface voxel (in world
// metric, honoring anisotropic spacing). Distances are not stored: a
// query measures from its own point to the feature voxel's center.
type Transform struct {
	im      *img.Image
	feature []int32 // linear index of nearest surface voxel, -1 if none

	// plane = NX*NY, with the reciprocals a lookup divides by.
	plane           int
	invPlane, invNX float64
}

// Compute builds the feature transform of im's surface voxels using
// the given number of parallel workers (0 means GOMAXPROCS).
func Compute(im *img.Image, workers int) *Transform {
	return new(Computer).Compute(im, workers)
}

// Computer owns the large working buffers of the transform so that
// repeated Computes on same-sized images reuse them instead of
// reallocating (the warm path of a run session). The zero value is
// ready to use.
//
// Each call to Compute recycles the buffers backing the Transform the
// previous call on the same Computer returned, invalidating it; the
// caller owns that lifecycle (a Session only ever keeps the latest).
type Computer struct {
	d2   []float64
	feat []int32
}

// grow returns s resliced to length n, reallocating only when the
// capacity is insufficient.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var inf = math.Inf(1)

// Compute builds the feature transform of im's surface voxels, reusing
// c's buffers (0 workers means GOMAXPROCS).
func (c *Computer) Compute(im *img.Image, workers int) *Transform {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nx, ny, nz := im.NX, im.NY, im.NZ
	n := nx * ny * nz

	// d2 holds running squared distance; feat the current best feature.
	// Neither is cleared: pass 1 writes every element of every row.
	c.d2 = grow(c.d2, n)
	c.feat = grow(c.feat, n)
	d2, feat := c.d2, c.feat

	// Pass 1: along X (stride 1), rows indexed by (j,k). Each row finds
	// its own surface voxels — the seeds, at distance 0 from themselves
	// — and scans them while the row is hot, so seeding is as parallel
	// as the scan and no seed list or cleared buffer exists in between.
	sx, sy, sz := im.Spacing.X, im.Spacing.Y, im.Spacing.Z
	parallelFor(ny*nz, workers, func(row int, sc *lineScratch) {
		base := row * nx
		sc.seeds = im.AppendSurfaceRow(sc.seeds[:0], row%ny, row/ny)
		if len(sc.seeds) == 0 {
			for i := base; i < base+nx; i++ {
				d2[i] = inf
				feat[i] = -1
			}
			return
		}
		sc.size(nx)
		for s, idx := range sc.seeds {
			sc.q[s], sc.f[s], sc.src[s] = idx-base, 0, int32(idx)
		}
		sc.envelope(len(sc.seeds), sx)
		sc.fill(nx, sx, base, 1, d2, feat)
	})
	// Pass 2: along Y (stride nx), rows indexed by (i,k).
	parallelFor(nx*nz, workers, func(row int, sc *lineScratch) {
		i := row % nx
		k := row / nx
		base := k*nx*ny + i
		if n := sc.gather(ny, base, nx, d2, feat); n > 0 {
			sc.envelope(n, sy)
			sc.fill(ny, sy, base, nx, d2, feat)
		}
	})
	// Pass 3: along Z (stride nx*ny), rows indexed by (i,j). Nothing
	// reads the distances after the last pass, so it writes features
	// only.
	parallelFor(nx*ny, workers, func(row int, sc *lineScratch) {
		if n := sc.gather(nz, row, nx*ny, d2, feat); n > 0 {
			sc.envelope(n, sz)
			sc.fill(nz, sz, row, nx*ny, nil, feat)
		}
	})
	return &Transform{
		im: im, feature: feat,
		plane: nx * ny, invPlane: 1 / float64(nx*ny), invNX: 1 / float64(nx),
	}
}

// lineScratch carries the per-scanline envelope buffers. One instance
// serves every row a goroutine processes (and is pooled across
// passes and Computes).
//
// A scan line's finite inputs — its sites — are gathered into q (the
// position along the line), f (squared distance so far) and src (the
// feature achieving it); envelope then compacts them in place to the
// sites on the lower envelope, with z their breakpoints.
type lineScratch struct {
	q     []int
	f     []float64
	src   []int32
	z     []float64
	seeds []int // pass 1: the row's surface voxels
}

var linePool = sync.Pool{New: func() any { return new(lineScratch) }}

func (sc *lineScratch) size(m int) {
	sc.q = grow(sc.q, m)
	sc.f = grow(sc.f, m)
	sc.src = grow(sc.src, m)
	sc.z = grow(sc.z, m+1)
}

// gather collects the finite elements of one scan line of length m —
// first element at base, consecutive ones stride apart in d2/feat —
// as the line's sites, and returns their number.
func (sc *lineScratch) gather(m, base, stride int, d2 []float64, feat []int32) int {
	sc.size(m)
	q, f, src := sc.q, sc.f, sc.src
	n := 0
	for x, i := 0, base; x < m; x, i = x+1, i+stride {
		if v := d2[i]; v != inf {
			q[n], f[n], src[n] = x, v, feat[i]
			n++
		}
	}
	return n
}

// envelope reduces the first n > 0 sites to the lower envelope of
// their parabolas y = s²(x-q)² + f (Felzenszwalb & Huttenlocher, exact
// for the Maurer separable recurrence), compacting q/f/src in place and
// leaving z[k], z[k+1] as the range of x over which site k is lowest.
//
// The breakpoint expression is frozen. Where two surface voxels are
// equidistant it decides, through its rounding, which one becomes the
// feature — and so which voxel every later surface ray aims at and
// every mesh coordinate downstream. Rearranging it algebraically would
// still be an exact transform, but not this one.
func (sc *lineScratch) envelope(n int, s float64) {
	qs, f, src, z := sc.q, sc.f, sc.src, sc.z
	s2 := s * s
	k := 0
	z[0] = math.Inf(-1)
	z[1] = inf
	for c := 1; c < n; c++ {
		q := qs[c]
		var sIntersect float64
		for {
			p := qs[k]
			// Intersection of parabolas rooted at p and q.
			sIntersect = (f[c] - f[k] + s2*float64(q*q-p*p)) / (2 * s2 * float64(q-p))
			if sIntersect > z[k] {
				break
			}
			k--
		}
		k++
		qs[k], f[k], src[k] = q, f[c], src[c]
		z[k] = sIntersect
		z[k+1] = inf
	}
}

// fill evaluates the envelope along the line: out(x) = min over sites
// of s²(x-q)² + f(q), with the feature achieving it. d2 may be nil
// when only the features are wanted.
func (sc *lineScratch) fill(m int, s float64, base, stride int, d2 []float64, feat []int32) {
	qs, f, src, z := sc.q, sc.f, sc.src, sc.z
	k := 0
	if d2 == nil {
		for x, i := 0, base; x < m; x, i = x+1, i+stride {
			for z[k+1] < float64(x) {
				k++
			}
			feat[i] = src[k]
		}
		return
	}
	for x, i := 0, base; x < m; x, i = x+1, i+stride {
		for z[k+1] < float64(x) {
			k++
		}
		dx := s * float64(x-qs[k])
		d2[i] = dx*dx + f[k]
		feat[i] = src[k]
	}
}

// parallelFor runs fn(i, scratch) for i in [0, n) over `workers`
// goroutines; each goroutine draws one pooled scanline scratch for all
// its rows.
func parallelFor(n, workers int, fn func(int, *lineScratch)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := linePool.Get().(*lineScratch)
		for i := 0; i < n; i++ {
			fn(i, sc)
		}
		linePool.Put(sc)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Injected straggler: one slice of one pass stalls, proving
			// the pass barrier tolerates wildly imbalanced slice times.
			faultinject.Sleep(faultinject.SlowEDT)
			sc := linePool.Get().(*lineScratch)
			for i := lo; i < hi; i++ {
				fn(i, sc)
			}
			linePool.Put(sc)
		}(lo, hi)
	}
	wg.Wait()
}

// NearestSurfaceVoxel returns the center of the surface voxel closest
// to world point p — exactly so for the center of p's voxel — and
// ok=false when the image has no surface voxels or p is outside the
// image.
func (t *Transform) NearestSurfaceVoxel(p geom.Vec3) (geom.Vec3, bool) {
	im := t.im
	i, j, k := im.Voxel(p)
	if i < 0 || j < 0 || k < 0 || i >= im.NX || j >= im.NY || k >= im.NZ {
		return geom.Vec3{}, false
	}
	fidx := int(t.feature[(k*im.NY+j)*im.NX+i])
	if fidx < 0 {
		return geom.Vec3{}, false
	}
	// Unindex without its two integer divisions: the quotient estimated
	// in floating point is exact or one too small (a product of a
	// correctly rounded reciprocal errs by under one part in 2^51, and
	// fidx < 2^31), which the remainder reveals.
	fk := int(float64(fidx) * t.invPlane)
	rem := fidx - fk*t.plane
	if rem >= t.plane {
		fk, rem = fk+1, rem-t.plane
	}
	fj := int(float64(rem) * t.invNX)
	fi := rem - fj*im.NX
	if fi >= im.NX {
		fj, fi = fj+1, fi-im.NX
	}
	return im.VoxelCenter(fi, fj, fk), true
}

// DistanceToSurface returns the distance (world units) from p to the
// center of the surface voxel nearest the center of p's voxel, +Inf
// when unavailable. The value is exact at voxel centers and accurate to
// within one voxel diagonal elsewhere (the stored feature is the
// nearest surface voxel of the containing voxel's center, not of p).
func (t *Transform) DistanceToSurface(p geom.Vec3) float64 {
	sv, ok := t.NearestSurfaceVoxel(p)
	if !ok {
		return math.Inf(1)
	}
	return p.Dist(sv)
}
