package edt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/img"
)

// bruteNearest finds the nearest surface voxel center by exhaustive
// search (the reference the transform must match exactly at voxel
// centers).
func bruteNearest(im *img.Image, p geom.Vec3) (geom.Vec3, float64) {
	best := math.Inf(1)
	var bestC geom.Vec3
	for _, idx := range im.SurfaceVoxels() {
		i, j, k := im.Unindex(idx)
		c := im.VoxelCenter(i, j, k)
		if d := p.Dist(c); d < best {
			best = d
			bestC = c
		}
	}
	return bestC, best
}

func TestEDTMatchesBruteForce(t *testing.T) {
	im := img.SpherePhantom(16)
	tr := Compute(im, 1)
	for k := 0; k < im.NZ; k++ {
		for j := 0; j < im.NY; j++ {
			for i := 0; i < im.NX; i++ {
				p := im.VoxelCenter(i, j, k)
				_, wantD := bruteNearest(im, p)
				gotD := tr.DistanceToSurface(p)
				if math.Abs(gotD-wantD) > 1e-9 {
					t.Fatalf("voxel (%d,%d,%d): EDT dist %v, brute %v", i, j, k, gotD, wantD)
				}
			}
		}
	}
}

func TestEDTAnisotropicSpacing(t *testing.T) {
	scene := img.SphereScene(12)
	im := scene.Voxelize(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1})
	// Rebuild the same logical content with z-spacing 2.5: distances
	// must be computed in world units.
	aniso := img.New(12, 12, 12, geom.Vec3{X: 1, Y: 2, Z: 2.5})
	for k := 0; k < 12; k++ {
		for j := 0; j < 12; j++ {
			for i := 0; i < 12; i++ {
				aniso.Set(i, j, k, im.At(i, j, k))
			}
		}
	}
	tr := Compute(aniso, 2)
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 50; n++ {
		i, j, k := rng.Intn(12), rng.Intn(12), rng.Intn(12)
		p := aniso.VoxelCenter(i, j, k)
		_, wantD := bruteNearest(aniso, p)
		gotD := tr.DistanceToSurface(p)
		if math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("anisotropic voxel (%d,%d,%d): EDT %v, brute %v", i, j, k, gotD, wantD)
		}
	}
}

func TestEDTParallelMatchesSerial(t *testing.T) {
	aniso := img.New(20, 14, 9, geom.Vec3{X: 1, Y: 2, Z: 2.5})
	rng := rand.New(rand.NewSource(13))
	for n := 0; n < 300; n++ {
		aniso.Set(rng.Intn(20), rng.Intn(14), rng.Intn(9), img.Label(1+rng.Intn(3)))
	}
	for _, im := range []*img.Image{img.AbdominalPhantom(24, 24, 16), aniso} {
		serial := Compute(im, 1).feature
		for _, workers := range []int{2, 5, 8} {
			requireSameFeatures(t, fmt.Sprintf("%dx%dx%d W=%d", im.NX, im.NY, im.NZ, workers),
				Compute(im, workers).feature, serial)
		}
	}
}

func TestNearestSurfaceVoxelIsSurface(t *testing.T) {
	im := img.TorusPhantom(24)
	tr := Compute(im, 2)
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 200; n++ {
		p := geom.Vec3{X: rng.Float64() * 24, Y: rng.Float64() * 24, Z: rng.Float64() * 24}
		q, ok := tr.NearestSurfaceVoxel(p)
		if !ok {
			t.Fatal("no nearest surface voxel inside image")
		}
		i, j, k := im.Voxel(q)
		if !im.IsSurfaceVoxel(i, j, k) {
			t.Fatalf("feature voxel (%d,%d,%d) is not a surface voxel", i, j, k)
		}
	}
}

func TestNearestSurfaceVoxelOutsideImage(t *testing.T) {
	im := img.SpherePhantom(16)
	tr := Compute(im, 1)
	if _, ok := tr.NearestSurfaceVoxel(geom.Vec3{X: -3, Y: 5, Z: 5}); ok {
		t.Error("point outside image returned a feature")
	}
	if d := tr.DistanceToSurface(geom.Vec3{X: 100, Y: 100, Z: 100}); !math.IsInf(d, 1) {
		t.Errorf("distance outside image = %v, want +Inf", d)
	}
}

func TestEDTEmptyImage(t *testing.T) {
	im := img.New(8, 8, 8, geom.Vec3{X: 1, Y: 1, Z: 1})
	tr := Compute(im, 2)
	if _, ok := tr.NearestSurfaceVoxel(geom.Vec3{X: 4, Y: 4, Z: 4}); ok {
		t.Error("empty image returned a feature")
	}
	if d := tr.DistanceToSurface(geom.Vec3{X: 4, Y: 4, Z: 4}); !math.IsInf(d, 1) {
		t.Errorf("distance in empty image = %v, want +Inf", d)
	}
}

func TestEDTExactDistanceProperty(t *testing.T) {
	// Property: for random images, the EDT at every voxel center
	// equals the brute-force nearest surface voxel distance.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		im := img.New(10, 9, 8, geom.Vec3{X: 1, Y: 1.3, Z: 0.7})
		for n := 0; n < 40; n++ {
			im.Set(rng.Intn(10), rng.Intn(9), rng.Intn(8), img.Label(1+rng.Intn(3)))
		}
		tr := Compute(im, 3)
		for k := 0; k < 8; k++ {
			for j := 0; j < 9; j++ {
				for i := 0; i < 10; i++ {
					p := im.VoxelCenter(i, j, k)
					_, want := bruteNearest(im, p)
					got := tr.DistanceToSurface(p)
					if math.IsInf(want, 1) != math.IsInf(got, 1) {
						t.Fatalf("inf mismatch at (%d,%d,%d)", i, j, k)
					}
					if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9 {
						t.Fatalf("trial %d voxel (%d,%d,%d): got %v want %v", trial, i, j, k, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkEDT times the transform on a warm Computer — the shape a
// session runs it in — at the two benchmark scales.
func BenchmarkEDT(b *testing.B) {
	for _, tc := range []struct{ scale, workers int }{{48, 1}, {96, 1}, {96, 2}} {
		im := img.KneePhantom(tc.scale, tc.scale, tc.scale)
		b.Run(fmt.Sprintf("knee%d/W%d", tc.scale, tc.workers), func(b *testing.B) {
			var c Computer
			c.Compute(im, tc.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Compute(im, tc.workers)
			}
			b.ReportMetric(float64(im.NumVoxels())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mvox/s")
		})
	}
}
