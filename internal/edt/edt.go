// Package edt computes the exact Euclidean feature transform of a
// segmented image's surface voxels — for every voxel, the surface voxel
// nearest it — in parallel. It stores the features only (4 bytes per
// voxel): a squared distance lives only while its scan line is swept,
// and a query measures its own distance to the feature.
//
// PI2M needs, for an arbitrary query point p, the surface voxel
// closest to p (paper Section 3: the EDT "returns the surface voxel q
// which is closest to p"); the refiner then marches the ray pq to find
// the exact isosurface point. The paper uses the parallel Maurer
// filter of Staubs et al. [56]; this implementation uses the same
// dimension-by-dimension exact decomposition (lower envelopes of
// parabolas per scan line, Felzenszwalb-Huttenlocher form of the
// Maurer recurrence), parallelized across z-planes for the two
// in-plane passes and across scan lines for the third, which produces
// the identical exact transform and likewise scales linearly with the
// number of workers.
package edt

import (
	"math"
	"runtime"
	"sync"

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

// Computer owns the transform's one volume-sized buffer, the features
// (4 bytes per voxel), so that repeated Computes on same-sized images
// reuse it instead of reallocating (the warm path of a run session).
// The zero value is ready to use.
//
// Each call to Compute recycles the buffer backing the Transform the
// previous call on the same Computer returned, invalidating it; the
// caller owns that lifecycle (a Session only ever keeps the latest).
type Computer struct {
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
// c's buffer (0 workers means GOMAXPROCS).
//
// No squared distance outlives its scan line. A pass's sites are the
// voxels the previous pass gave a feature, each valued at its squared
// distance to that feature, recomputed with the arithmetic that
// previous pass evaluated it with, so bit for bit the value a
// volume-sized distance buffer would have held; one that overflows to
// +Inf is no site, as a stored +Inf was none.
func (c *Computer) Compute(im *img.Image, workers int) *Transform {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nx, ny, nz := im.NX, im.NY, im.NZ
	plane := nx * ny

	// feat is not cleared: pass 1 writes every element of every row.
	c.feat = grow(c.feat, plane*nz)
	feat := c.feat
	invNX := 1 / float64(nx)

	// Passes 1 and 2 stay within one z-plane, so each plane runs both
	// back to back while its features are in cache.
	sx, sy, sz := im.Spacing.X, im.Spacing.Y, im.Spacing.Z
	parallelFor(nz, workers, func(k int, sc *lineScratch) {
		sc.size(max(nx, ny))
		q, f, src := sc.q, sc.f, sc.src
		// Pass 1: along X (stride 1), the plane's rows j. Each row finds
		// its own surface voxels — the seeds, at distance 0 from
		// themselves — and scans them while the row is hot, so seeding is
		// as parallel as the scan and no seed list or cleared buffer
		// exists in between.
		for j := 0; j < ny; j++ {
			base := (k*ny + j) * nx
			sc.seeds = im.AppendSurfaceRow(sc.seeds[:0], j, k)
			if len(sc.seeds) == 0 {
				for i := base; i < base+nx; i++ {
					feat[i] = -1
				}
				continue
			}
			for s, idx := range sc.seeds {
				q[s], f[s], src[s] = idx-base, 0, int32(idx)
			}
			sc.envelope(len(sc.seeds), sx)
			sc.fill(nx, base, 1, feat)
		}
		// Pass 2: along Y (stride nx), the plane's columns i. A pass-1
		// feature lies on its voxel's own X row, so their index
		// difference is the x offset a, and pass 1 evaluated the distance
		// as a*a + 0.
		for i := 0; i < nx; i++ {
			base := k*plane + i
			n := 0
			for y, idx := 0, base; y < ny; y, idx = y+1, idx+nx {
				if v := feat[idx]; v >= 0 {
					a := sx * float64(idx-int(v))
					if d := a * a; d != inf {
						q[n], f[n], src[n] = y, d, v
						n++
					}
				}
			}
			if n > 0 {
				sc.envelope(n, sy)
				sc.fill(ny, base, nx, feat)
			}
		}
	})
	// Pass 3: along Z (stride nx*ny), rows indexed by (i,j). A pass-2
	// feature lies in its voxel's own z-plane, at (fi,fj), and pass 2
	// evaluated the distance as b*b + f with a, b the x and y offsets and
	// f = a*a from pass 1, a rounded value. The float64 conversion rounds
	// a*a the same way, so a platform that fuses multiply-adds fuses only
	// b*b into the sum, as it did in pass 2's fill.
	parallelFor(plane, workers, func(row int, sc *lineScratch) {
		i, j := unindexPlane(row, nx, invNX)
		sc.size(nz)
		q, f, src := sc.q, sc.f, sc.src
		n := 0
		for z, idx := 0, row; z < nz; z, idx = z+1, idx+plane {
			if v := feat[idx]; v >= 0 {
				fi, fj := unindexPlane(int(v)-idx+row, nx, invNX)
				a := sx * float64(i-fi)
				b := sy * float64(j-fj)
				if d := b*b + float64(a*a); d != inf {
					q[n], f[n], src[n] = z, d, v
					n++
				}
			}
		}
		if n > 0 {
			sc.envelope(n, sz)
			sc.fill(nz, row, plane, feat)
		}
	})
	return &Transform{
		im: im, feature: feat,
		plane: plane, invPlane: 1 / float64(plane), invNX: invNX,
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

// fill evaluates the envelope along the line of length m — first
// element at base, consecutive ones stride apart in feat — writing at
// each x the feature of the site whose parabola is lowest there.
func (sc *lineScratch) fill(m, base, stride int, feat []int32) {
	src, z := sc.src, sc.z
	k := 0
	for x, i := 0, base; x < m; x, i = x+1, i+stride {
		for z[k+1] < float64(x) {
			k++
		}
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
	fi, fj := unindexPlane(rem, im.NX, t.invNX)
	return im.VoxelCenter(fi, fj, fk), true
}

// unindexPlane splits an offset within one z-plane of row length nx
// into (i, j) with the same reciprocal estimate and remainder fix-up.
func unindexPlane(rem, nx int, invNX float64) (i, j int) {
	j = int(float64(rem) * invNX)
	i = rem - j*nx
	if i >= nx {
		i, j = i-nx, j+1
	}
	return i, j
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
