package smooth

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/quality"
)

func extractSphere(t *testing.T, n int) (*Mesh, *core.Result) {
	t.Helper()
	im := img.SpherePhantom(n)
	res, err := core.Run(core.Config{Image: im, Workers: 2, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return New(res.Snapshot()), res
}

func TestExtractConsistency(t *testing.T) {
	s, res := extractSphere(t, 32)
	if len(s.Cells) != res.Elements() {
		t.Fatalf("cells %d, want %d", len(s.Cells), res.Elements())
	}
	if len(s.BoundaryTris) == 0 {
		t.Fatal("no boundary")
	}
	if s.MinCellVolume() <= 0 {
		t.Fatal("extracted mesh has non-positive cells")
	}
	// Watertight extraction: enclosed volume equals summed volume.
	if v, ev := s.Volume(), s.EnclosedVolume(); math.Abs(v-ev) > 1e-6*v {
		t.Fatalf("Volume %v != EnclosedVolume %v", v, ev)
	}
	if len(s.Labels) != len(s.Cells) {
		t.Fatalf("labels %d", len(s.Labels))
	}
}

func TestTaubinSmoothsAndConservesVolume(t *testing.T) {
	s, _ := extractSphere(t, 32)
	v0 := s.Volume()
	st := s.Taubin(10, 0.5, -0.53)

	if st.Moved == 0 {
		t.Fatal("no vertices moved")
	}
	if st.RoughnessDrop <= 0 {
		t.Errorf("roughness did not drop: %v", st.RoughnessDrop)
	}
	// Volume conserved within 1%.
	if math.Abs(s.Volume()-v0) > 0.01*v0 {
		t.Errorf("volume drifted: %v -> %v", v0, s.Volume())
	}
	// No inverted elements.
	if s.MinCellVolume() <= 0 {
		t.Fatal("smoothing inverted an element")
	}
}

// TestTaubinDeterministic: smoothing the same snapshot twice gives
// bitwise the same vertices, and leaves the snapshot itself untouched.
func TestTaubinDeterministic(t *testing.T) {
	res, err := core.Run(core.Config{Image: img.SpherePhantom(32), Workers: 1, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	before := slices.Clone(snap.Verts)
	a, b := New(snap), New(snap)
	a.Taubin(10, 0.5, -0.53)
	b.Taubin(10, 0.5, -0.53)
	if !slices.Equal(a.Verts, b.Verts) {
		t.Fatal("two smoothings of one snapshot moved its vertices differently")
	}
	if slices.Equal(a.Verts, before) || !slices.Equal(snap.Verts, before) {
		t.Fatal("smoothing must move the copy's vertices and leave the snapshot's alone")
	}
}

func TestTaubinZeroIterationsIsNoOp(t *testing.T) {
	s, _ := extractSphere(t, 24)
	v0 := s.Verts[0]
	st := s.Taubin(0, 0.5, -0.53)
	if st.Moved != 0 && s.Verts[0] != v0 {
		// restoreVolume may nudge if volume drifted, but with zero
		// iterations there is no drift.
		t.Errorf("no-op smoothing moved vertices: %+v", st)
	}
}

func TestSmoothMultiTissue(t *testing.T) {
	im := img.AbdominalPhantom(36, 36, 24)
	res, err := core.Run(core.Config{Image: im, Workers: 2, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s := New(res.Snapshot())
	v0 := s.Volume()
	s.Taubin(5, 0.5, -0.53)
	if s.MinCellVolume() <= 0 {
		t.Fatal("inverted element in multi-tissue smoothing")
	}
	if math.Abs(s.Volume()-v0) > 0.02*v0 {
		t.Errorf("multi-tissue volume drift %v -> %v", v0, s.Volume())
	}
}

func TestInteriorVerticesFixed(t *testing.T) {
	s, _ := extractSphere(t, 24)
	// Record interior vertex positions.
	type vp struct {
		i int
		p [3]float64
	}
	var interior []vp
	for i, b := range s.boundaryVert {
		if !b {
			interior = append(interior, vp{i, [3]float64{s.Verts[i].X, s.Verts[i].Y, s.Verts[i].Z}})
		}
	}
	if len(interior) == 0 {
		t.Skip("no interior vertices at this scale")
	}
	s.Taubin(5, 0.5, -0.53)
	for _, v := range interior {
		q := s.Verts[v.i]
		if q.X != v.p[0] || q.Y != v.p[1] || q.Z != v.p[2] {
			t.Fatal("interior vertex moved")
		}
	}
}

// TestSmoothingDisplacementBounded measures how far the boundary moved
// using the quality package's surface distance: Taubin smoothing is a
// local averaging, so displacement must stay within ~2 local edge
// lengths.
func TestSmoothingDisplacementBounded(t *testing.T) {
	s, res := extractSphere(t, 32)
	before := boundaryTriangles(s)
	_ = res
	s.Taubin(10, 0.5, -0.53)
	after := boundaryTriangles(s)
	d := quality.SurfaceDistance(after, before)
	if d > 6 { // delta=2 mesh: edges ~2-4 voxels
		t.Errorf("smoothing displaced the surface by %.2f voxels", d)
	}
	if d <= 0 {
		t.Errorf("no displacement measured (smoothing inert?)")
	}
}

func boundaryTriangles(s *Mesh) []quality.Triangle {
	out := make([]quality.Triangle, 0, len(s.BoundaryTris))
	for _, tr := range s.BoundaryTris {
		out = append(out, quality.Triangle{
			A: s.Verts[tr[0]], B: s.Verts[tr[1]], C: s.Verts[tr[2]],
		})
	}
	return out
}
