package quality_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/edt"
	"repro/internal/img"
	"repro/internal/quality"
)

// TestTheorem1Convergence checks the quantitative half of Theorem 1:
// the two-sided Hausdorff distance between the recovered boundary and
// ∂O is O(δ²). The guarantee assumes a smooth ∂O; a voxelized label
// field bottoms out at a quantization floor of ~1.5 voxels (the EDT
// measures to voxel centers, and the interface staircases at voxel
// scale — the paper's own Table 6 Hausdorff values are likewise "far
// from ideal" for this reason). So the assertion is: super-linear
// improvement while δ is above the floor, monotone decrease
// throughout.
func TestTheorem1Convergence(t *testing.T) {
	im := img.SpherePhantom(96)
	tr := edt.Compute(im, 0)

	deltas := []float64{24, 16, 12}
	var hausdorff []float64
	for _, d := range deltas {
		res, err := core.Run(core.Config{
			Image:   im,
			Workers: 2,
			Delta:   d,
		})
		if err != nil {
			t.Fatal(err)
		}
		tris := res.Snapshot().BoundaryTriangles()
		h := quality.SymmetricHausdorff(tris, im, tr)
		hausdorff = append(hausdorff, h)
		t.Logf("delta=%g: %d elements, Hausdorff %.3f", d, res.Elements(), h)
	}

	for i := 1; i < len(hausdorff); i++ {
		if hausdorff[i] >= hausdorff[i-1] {
			t.Errorf("Hausdorff did not improve: δ=%g gives %.3f, δ=%g gives %.3f",
				deltas[i-1], hausdorff[i-1], deltas[i], hausdorff[i])
		}
	}
	// O(δ²) over a 2x δ range predicts ~4x; require super-linear (>2.2x)
	// above the quantization floor.
	if hausdorff[0] < 2.2*hausdorff[len(hausdorff)-1] {
		t.Errorf("convergence not super-linear: %.3f -> %.3f over 2x δ",
			hausdorff[0], hausdorff[len(hausdorff)-1])
	}
}
