package edt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/img"
)

// referenceFeatures is the transform as it was computed before seeding
// moved into the first pass, kept verbatim as the oracle: seed from
// SurfaceVoxels into cleared buffers, then three envelope scans that
// copy every line out and back. Compute must reproduce its feature
// array exactly — where surface voxels are equidistant, the same one
// must win.
func referenceFeatures(im *img.Image) []int32 {
	nx, ny, nz := im.NX, im.NY, im.NZ
	n := nx * ny * nz
	d2 := make([]float64, n)
	feat := make([]int32, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
		feat[i] = -1
	}
	for _, idx := range im.SurfaceVoxels() {
		d2[idx] = 0
		feat[idx] = int32(idx)
	}
	sx, sy, sz := im.Spacing.X, im.Spacing.Y, im.Spacing.Z
	for row := 0; row < ny*nz; row++ {
		referenceScan(nx, sx, row*nx, 1, d2, feat)
	}
	for row := 0; row < nx*nz; row++ {
		referenceScan(ny, sy, (row/nx)*nx*ny+row%nx, nx, d2, feat)
	}
	for row := 0; row < nx*ny; row++ {
		referenceScan(nz, sz, row, nx*ny, d2, feat)
	}
	return feat
}

func referenceScan(m int, s float64, base, stride int, d2 []float64, feat []int32) {
	v := make([]int, m)
	z := make([]float64, m+1)
	f := make([]float64, m)
	src := make([]int32, m)
	for q := 0; q < m; q++ {
		f[q] = d2[base+q*stride]
		src[q] = feat[base+q*stride]
	}
	s2 := s * s

	k := 0
	v[0] = -1
	z[0] = math.Inf(-1)
	z[1] = math.Inf(1)
	started := false
	for q := 0; q < m; q++ {
		if math.IsInf(f[q], 1) {
			continue
		}
		if !started {
			started = true
			k = 0
			v[0] = q
			z[0] = math.Inf(-1)
			z[1] = math.Inf(1)
			continue
		}
		var sIntersect float64
		for {
			p := v[k]
			sIntersect = (f[q] - f[p] + s2*float64(q*q-p*p)) / (2 * s2 * float64(q-p))
			if sIntersect > z[k] {
				break
			}
			k--
		}
		k++
		v[k] = q
		z[k] = sIntersect
		z[k+1] = math.Inf(1)
	}
	if !started {
		return
	}

	k = 0
	for x := 0; x < m; x++ {
		for z[k+1] < float64(x) {
			k++
		}
		q := v[k]
		dx := s * float64(x-q)
		d2[base+x*stride] = dx*dx + f[q]
		feat[base+x*stride] = src[q]
	}
}

func requireSameFeatures(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, reference has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: feature[%d] = %d, reference %d", name, i, got[i], want[i])
		}
	}
}

// randomLabels fills a fresh image with labels 1..3 at the given
// density. Integer-ish spacings and small dimensions make equidistant
// surface voxels the rule rather than the exception.
func randomLabels(rng *rand.Rand, nx, ny, nz int, spacing geom.Vec3, density float64) *img.Image {
	im := img.New(nx, ny, nz, spacing)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if rng.Float64() < density {
					im.Set(i, j, k, img.Label(1+rng.Intn(3)))
				}
			}
		}
	}
	return im
}

// TestFeaturesMatchReference is the differential test of the fused
// transform: identical feature arrays to the pre-fusion algorithm, at
// several worker counts, through one warm Computer.
func TestFeaturesMatchReference(t *testing.T) {
	type input struct {
		name string
		im   *img.Image
	}
	var inputs []input
	scales := []int{48, 96}
	if testing.Short() {
		scales = []int{48}
	}
	for _, n := range scales {
		inputs = append(inputs,
			input{fmt.Sprintf("knee%d", n), img.KneePhantom(n, n, n)},
			input{fmt.Sprintf("abdominal%d", n), img.AbdominalPhantom(n, n, n*2/3)},
			input{fmt.Sprintf("headneck%d", n), img.HeadNeckPhantom(n, n, n)})
	}
	inputs = append(inputs, input{"torus24", img.TorusPhantom(24)})

	rng := rand.New(rand.NewSource(19))
	spacings := []geom.Vec3{
		{X: 1, Y: 1, Z: 1}, {X: 1, Y: 2, Z: 2.5}, {X: 0.7, Y: 1.3, Z: 1}, {X: 0.5, Y: 0.5, Z: 3},
	}
	densities := []float64{0.001, 0.01, 0.05, 0.2, 0.5, 0.9}
	dims := [][3]int{
		{17, 13, 11}, {1, 1, 1}, {1, 9, 14}, {12, 1, 7}, {9, 16, 1}, {2, 2, 2}, {3, 20, 5}, {23, 4, 19},
	}
	for trial := 0; trial < 36; trial++ {
		d := dims[trial%len(dims)]
		sp := spacings[(trial/2)%len(spacings)]
		dens := densities[trial%len(densities)]
		inputs = append(inputs, input{
			fmt.Sprintf("random%d_%dx%dx%d_%g", trial, d[0], d[1], d[2], dens),
			randomLabels(rng, d[0], d[1], d[2], sp, dens),
		})
	}

	var c Computer
	for _, in := range inputs {
		want := referenceFeatures(in.im)
		for _, workers := range []int{1, 2, 3, 8} {
			got := c.Compute(in.im, workers).feature
			requireSameFeatures(t, fmt.Sprintf("%s W=%d", in.name, workers), got, want)
		}
	}
}

// TestFeaturesMatchReferenceNonDyadic compares against the reference
// where rounding decides ties: at spacings no power of two divides, a
// squared distance that is recomputed rather than stored must round
// exactly as the reference's stored one did, or an equidistant rival
// wins. Small random images make such ties common.
func TestFeaturesMatchReferenceNonDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	densities := []float64{0.01, 0.05, 0.2, 0.5}
	images := 200
	if testing.Short() {
		images = 50
	}
	var c Computer
	for _, sp := range []geom.Vec3{{X: 0.3, Y: 0.7, Z: 0.9}, {X: 1.1, Y: 0.1, Z: 0.2}} {
		for trial := 0; trial < images; trial++ {
			nx, ny, nz := 5+rng.Intn(21), 5+rng.Intn(21), 3+rng.Intn(11)
			dens := densities[trial%len(densities)]
			im := randomLabels(rng, nx, ny, nz, sp, dens)
			want := referenceFeatures(im)
			for _, workers := range []int{1, 2, 3} {
				requireSameFeatures(t, fmt.Sprintf("%v %dx%dx%d_%g W=%d", sp, nx, ny, nz, dens, workers),
					c.Compute(im, workers).feature, want)
			}
		}
	}
}

// TestWarmComputerNoStaleEntries: the buffer is never cleared, so a
// smaller (and an empty) image after a larger one must still see only
// its own features.
func TestWarmComputerNoStaleEntries(t *testing.T) {
	var c Computer
	c.Compute(img.KneePhantom(32, 32, 32), 2)

	small := img.AbdominalPhantom(20, 16, 12)
	requireSameFeatures(t, "small after large", c.Compute(small, 2).feature, referenceFeatures(small))

	c.Compute(img.KneePhantom(32, 32, 32), 1)
	empty := img.New(9, 7, 5, geom.Vec3{X: 1, Y: 1, Z: 1})
	for i, f := range c.Compute(empty, 3).feature {
		if f != -1 {
			t.Fatalf("empty image after a full one: feature[%d] = %d, want -1", i, f)
		}
	}
}

// TestLookupUnindexesExactly: NearestSurfaceVoxel recovers a feature's (i,j,k) with
// reciprocal multiplications instead of Unindex's divisions. On a
// checkerboard of two labels every voxel is its own feature, so each
// voxel center must look itself up — on shapes with unit, prime and
// power-of-two extents, where an estimated quotient is most likely to
// land one off.
func TestLookupUnindexesExactly(t *testing.T) {
	for _, d := range [][3]int{
		{7, 5, 3}, {1, 1, 9}, {1, 9, 1}, {9, 1, 1}, {127, 3, 2}, {3, 128, 2}, {2, 3, 131},
		{1291, 3, 1}, {64, 64, 8}, {49, 7, 49}, {3, 1, 1021},
	} {
		im := img.New(d[0], d[1], d[2], geom.Vec3{X: 0.7, Y: 1.3, Z: 1})
		for k := 0; k < d[2]; k++ {
			for j := 0; j < d[1]; j++ {
				for i := 0; i < d[0]; i++ {
					im.Set(i, j, k, img.Label(1+(i+j+k)%2))
				}
			}
		}
		tr := Compute(im, 2)
		for k := 0; k < d[2]; k++ {
			for j := 0; j < d[1]; j++ {
				for i := 0; i < d[0]; i++ {
					c := im.VoxelCenter(i, j, k)
					if got, ok := tr.NearestSurfaceVoxel(c); !ok || got != c {
						t.Fatalf("%v: voxel (%d,%d,%d) at %v looked up %v, %v", d, i, j, k, c, got, ok)
					}
				}
			}
		}
	}
}
