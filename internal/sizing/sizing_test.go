package sizing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/img"
)

func v3(x, y, z float64) geom.Vec3 { return geom.Vec3{X: x, Y: y, Z: z} }

func TestUniformAndUnbounded(t *testing.T) {
	if Uniform(3)(v3(1, 2, 3)) != 3 {
		t.Error("Uniform")
	}
	if !math.IsInf(Unbounded()(v3(0, 0, 0)), 1) {
		t.Error("Unbounded")
	}
}

func TestBallRamp(t *testing.T) {
	f := Ball(v3(0, 0, 0), 2, 1, 5)
	if f(v3(1, 0, 0)) != 1 {
		t.Error("inside value")
	}
	if f(v3(10, 0, 0)) != 5 {
		t.Error("outside value")
	}
	mid := f(v3(3, 0, 0)) // halfway through the ramp
	if math.Abs(mid-3) > 1e-12 {
		t.Errorf("ramp midpoint = %v, want 3", mid)
	}
}

func TestBallMonotoneAlongRay(t *testing.T) {
	f := Ball(v3(0, 0, 0), 2, 1, 5)
	prev := 0.0
	for d := 0.0; d < 8; d += 0.1 {
		h := f(v3(d, 0, 0))
		if h < prev-1e-12 {
			t.Fatalf("Ball not monotone at %v", d)
		}
		prev = h
	}
}

func TestPerLabel(t *testing.T) {
	im := img.AbdominalPhantom(32, 32, 24)
	f := PerLabel(im, map[img.Label]float64{6: 0.5}, 4)
	// The aorta (label 6) runs vertically near (0.5, 0.56) of the box.
	foundFine := false
	for k := 4; k < 20; k++ {
		p := v3(16, 18, float64(k))
		if im.LabelAt(p) == 6 && f(p) == 0.5 {
			foundFine = true
		}
	}
	if !foundFine {
		t.Error("no fine sizing inside the labeled vessel")
	}
	if f(v3(1, 1, 1)) != 4 {
		t.Error("default not applied outside")
	}
}

func TestNearSurfaceGrading(t *testing.T) {
	im := img.SpherePhantom(32)
	tr := edt.Compute(im, 1)
	f := NearSurface(tr, 1, 6, 2)
	center := v3(16, 16, 16) // ~11 voxels from the surface
	nearSurf := v3(16+11, 16, 16)
	if h := f(nearSurf); h != 1 {
		t.Errorf("near-surface size = %v, want 1", h)
	}
	if h := f(center); h <= 1 || h > 6 {
		t.Errorf("center size = %v, want in (1, 6]", h)
	}
}

func TestGradedLipschitz(t *testing.T) {
	src := []Source{{At: v3(0, 0, 0), H: 1}, {At: v3(10, 0, 0), H: 2}}
	f := Graded(src, 0.5, 100)
	if f(v3(0, 0, 0)) != 1 {
		t.Error("at source")
	}
	// Lipschitz property: |f(p) - f(q)| <= g*|p-q|.
	check := func(px, py, pz, qx, qy, qz float64) bool {
		for _, c := range []float64{px, py, pz, qx, qy, qz} {
			if math.IsNaN(c) || math.Abs(c) > 1e3 {
				return true
			}
		}
		p := v3(px, py, pz)
		q := v3(qx, qy, qz)
		return math.Abs(f(p)-f(q)) <= 0.5*p.Dist(q)+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestMinAndScale(t *testing.T) {
	f := Min(Uniform(5), Uniform(3), Uniform(7))
	if f(v3(0, 0, 0)) != 3 {
		t.Error("Min")
	}
	if Scale(Uniform(3), 2)(v3(0, 0, 0)) != 6 {
		t.Error("Scale")
	}
	if !math.IsInf(Min()(v3(0, 0, 0)), 1) {
		t.Error("empty Min")
	}
}

// TestSizingDrivesRefinement runs PI2M with a per-label size function
// and verifies the targeted tissue is meshed more densely.
func TestSizingDrivesRefinement(t *testing.T) {
	im := img.AbdominalPhantom(40, 40, 28)
	base, err := core.Run(core.Config{Image: im, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := core.Run(core.Config{
		Image:    im,
		Workers:  2,
		SizeFunc: core.SizeFunc(PerLabel(im, map[img.Label]float64{2: 2.5}, math.Inf(1))),
	})
	if err != nil {
		t.Fatal(err)
	}
	count := func(res *core.Result, label img.Label) int {
		n := 0
		for _, h := range res.Final {
			if im.LabelAt(res.Mesh.Cells.At(h).CC) == label {
				n++
			}
		}
		return n
	}
	if count(fine, 2) <= count(base, 2) {
		t.Errorf("liver not densified: %d vs %d", count(fine, 2), count(base, 2))
	}
}
