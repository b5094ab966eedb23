package img

import (
	"math"

	"repro/internal/geom"
)

// Primitive is an analytic solid used to build synthetic phantoms.
type Primitive interface {
	// Contains reports whether world point p is inside the solid.
	Contains(p geom.Vec3) bool
}

// Ellipsoid is an axis-aligned ellipsoid.
type Ellipsoid struct {
	Center geom.Vec3
	Radii  geom.Vec3
}

// Contains implements Primitive.
func (e Ellipsoid) Contains(p geom.Vec3) bool {
	d := p.Sub(e.Center)
	x := d.X / e.Radii.X
	y := d.Y / e.Radii.Y
	z := d.Z / e.Radii.Z
	return x*x+y*y+z*z <= 1
}

// Capsule is a cylinder with hemispherical caps between A and B.
type Capsule struct {
	A, B   geom.Vec3
	Radius float64
}

// Contains implements Primitive.
func (c Capsule) Contains(p geom.Vec3) bool {
	ab := c.B.Sub(c.A)
	t := p.Sub(c.A).Dot(ab) / ab.Norm2()
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := c.A.Add(ab.Scale(t))
	return p.Dist2(closest) <= c.Radius*c.Radius
}

// Torus is a torus with major radius R and tube radius Rt, lying in
// the plane through Center perpendicular to Axis.
type Torus struct {
	Center geom.Vec3
	Axis   geom.Vec3 // unit axis
	R, Rt  float64
}

// Contains implements Primitive.
func (t Torus) Contains(p geom.Vec3) bool {
	d := p.Sub(t.Center)
	h := d.Dot(t.Axis)
	radial := d.Sub(t.Axis.Scale(h)).Norm()
	dr := radial - t.R
	return dr*dr+h*h <= t.Rt*t.Rt
}

// Region pairs a primitive with a tissue label. Later regions paint
// over earlier ones when voxelizing.
type Region struct {
	Label Label
	Solid Primitive
}

// Scene is an ordered list of labeled solids defining a phantom
// analytically. It doubles as an exact oracle in tests (the voxelized
// image approximates Scene.LabelAt to within a voxel).
type Scene struct {
	Regions []Region
}

// LabelAt returns the label of the last region containing p, or 0.
func (s *Scene) LabelAt(p geom.Vec3) Label {
	var l Label
	for _, r := range s.Regions {
		if r.Solid.Contains(p) {
			l = r.Label
		}
	}
	return l
}

// Voxelize paints the scene into a fresh image of the given dimensions
// and spacing, sampling at voxel centers.
func (s *Scene) Voxelize(nx, ny, nz int, spacing geom.Vec3) *Image {
	im := New(nx, ny, nz, spacing)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if l := s.LabelAt(im.VoxelCenter(i, j, k)); l != 0 {
					im.Set(i, j, k, l)
				}
			}
		}
	}
	return im
}

// SpherePhantom returns an n^3 image of a single sphere filling ~70%
// of the image extent — the facade examples' input (paper Figure 1's
// single-object pipeline).
func SpherePhantom(n int) *Image {
	s := SphereScene(n)
	return s.Voxelize(n, n, n, geom.Vec3{X: 1, Y: 1, Z: 1})
}

// SphereScene is the analytic scene behind SpherePhantom.
func SphereScene(n int) *Scene {
	c := float64(n) / 2
	r := 0.35 * float64(n)
	return &Scene{Regions: []Region{
		{Label: 1, Solid: Ellipsoid{Center: geom.Vec3{X: c, Y: c, Z: c}, Radii: geom.Vec3{X: r, Y: r, Z: r}}},
	}}
}

// TorusPhantom returns an n^3 image of a torus — a genus-1 surface
// exercising non-trivial topology recovery.
func TorusPhantom(n int) *Image {
	c := float64(n) / 2
	s := &Scene{Regions: []Region{
		{Label: 1, Solid: Torus{
			Center: geom.Vec3{X: c, Y: c, Z: c},
			Axis:   geom.Vec3{Z: 1},
			R:      0.28 * float64(n),
			Rt:     0.12 * float64(n),
		}},
	}}
	return s.Voxelize(n, n, n, geom.Vec3{X: 1, Y: 1, Z: 1})
}

// AbdominalScene models the IRCAD abdominal atlas substitution: a body
// envelope containing liver, two kidneys, spine and aorta, producing
// multiple smooth tissue interfaces and multi-material junctions. All
// coordinates scale with (nx, ny, nz).
func AbdominalScene(nx, ny, nz int, spacing geom.Vec3) *Scene {
	// Work in world units.
	w := geom.Vec3{X: float64(nx) * spacing.X, Y: float64(ny) * spacing.Y, Z: float64(nz) * spacing.Z}
	ctr := w.Scale(0.5)
	return &Scene{Regions: []Region{
		// Body envelope.
		{Label: 1, Solid: Ellipsoid{Center: ctr,
			Radii: geom.Vec3{X: 0.40 * w.X, Y: 0.33 * w.Y, Z: 0.44 * w.Z}}},
		// Liver: large off-center ellipsoid.
		{Label: 2, Solid: Ellipsoid{
			Center: geom.Vec3{X: 0.36 * w.X, Y: 0.45 * w.Y, Z: 0.55 * w.Z},
			Radii:  geom.Vec3{X: 0.17 * w.X, Y: 0.14 * w.Y, Z: 0.16 * w.Z}}},
		// Kidneys.
		{Label: 3, Solid: Ellipsoid{
			Center: geom.Vec3{X: 0.34 * w.X, Y: 0.62 * w.Y, Z: 0.38 * w.Z},
			Radii:  geom.Vec3{X: 0.06 * w.X, Y: 0.05 * w.Y, Z: 0.09 * w.Z}}},
		{Label: 4, Solid: Ellipsoid{
			Center: geom.Vec3{X: 0.66 * w.X, Y: 0.62 * w.Y, Z: 0.38 * w.Z},
			Radii:  geom.Vec3{X: 0.06 * w.X, Y: 0.05 * w.Y, Z: 0.09 * w.Z}}},
		// Spine: vertical capsule at the back.
		{Label: 5, Solid: Capsule{
			A:      geom.Vec3{X: 0.5 * w.X, Y: 0.70 * w.Y, Z: 0.12 * w.Z},
			B:      geom.Vec3{X: 0.5 * w.X, Y: 0.70 * w.Y, Z: 0.88 * w.Z},
			Radius: 0.05 * math.Min(w.X, w.Y)}},
		// Aorta: thinner vessel in front of the spine.
		{Label: 6, Solid: Capsule{
			A:      geom.Vec3{X: 0.52 * w.X, Y: 0.56 * w.Y, Z: 0.14 * w.Z},
			B:      geom.Vec3{X: 0.48 * w.X, Y: 0.56 * w.Y, Z: 0.86 * w.Z},
			Radius: 0.025 * math.Min(w.X, w.Y)}},
	}}
}

// AbdominalPhantom voxelizes AbdominalScene. The paper's input is
// 512x512x219 at 0.96x0.96x2.4mm (Table 3); pass smaller dimensions
// for host-scale runs — structure is preserved under scaling.
func AbdominalPhantom(nx, ny, nz int) *Image {
	spacing := geom.Vec3{X: 1, Y: 1, Z: 1}
	return AbdominalScene(nx, ny, nz, spacing).Voxelize(nx, ny, nz, spacing)
}

// KneeScene models the SPL knee atlas substitution: femur and tibia
// shafts with condyle heads, cartilage plates between them, and a
// meniscus ring, inside a soft-tissue envelope.
func KneeScene(nx, ny, nz int, spacing geom.Vec3) *Scene {
	w := geom.Vec3{X: float64(nx) * spacing.X, Y: float64(ny) * spacing.Y, Z: float64(nz) * spacing.Z}
	cx, cy := 0.5*w.X, 0.5*w.Y
	return &Scene{Regions: []Region{
		// Soft tissue envelope.
		{Label: 1, Solid: Ellipsoid{
			Center: geom.Vec3{X: cx, Y: cy, Z: 0.5 * w.Z},
			Radii:  geom.Vec3{X: 0.38 * w.X, Y: 0.38 * w.Y, Z: 0.46 * w.Z}}},
		// Femur: upper shaft + condyle head.
		{Label: 2, Solid: Capsule{
			A:      geom.Vec3{X: cx, Y: cy, Z: 0.86 * w.Z},
			B:      geom.Vec3{X: cx, Y: cy, Z: 0.62 * w.Z},
			Radius: 0.10 * w.X}},
		{Label: 2, Solid: Ellipsoid{
			Center: geom.Vec3{X: cx, Y: cy, Z: 0.60 * w.Z},
			Radii:  geom.Vec3{X: 0.16 * w.X, Y: 0.13 * w.Y, Z: 0.08 * w.Z}}},
		// Tibia: lower shaft + plateau.
		{Label: 3, Solid: Capsule{
			A:      geom.Vec3{X: cx, Y: cy, Z: 0.14 * w.Z},
			B:      geom.Vec3{X: cx, Y: cy, Z: 0.40 * w.Z},
			Radius: 0.09 * w.X}},
		{Label: 3, Solid: Ellipsoid{
			Center: geom.Vec3{X: cx, Y: cy, Z: 0.42 * w.Z},
			Radii:  geom.Vec3{X: 0.15 * w.X, Y: 0.12 * w.Y, Z: 0.06 * w.Z}}},
		// Cartilage plates in the joint space.
		{Label: 4, Solid: Ellipsoid{
			Center: geom.Vec3{X: cx, Y: cy, Z: 0.52 * w.Z},
			Radii:  geom.Vec3{X: 0.13 * w.X, Y: 0.11 * w.Y, Z: 0.035 * w.Z}}},
		// Meniscus ring around the joint.
		{Label: 5, Solid: Torus{
			Center: geom.Vec3{X: cx, Y: cy, Z: 0.52 * w.Z},
			Axis:   geom.Vec3{Z: 1},
			R:      0.15 * w.X,
			Rt:     0.030 * w.X}},
	}}
}

// KneePhantom voxelizes KneeScene (paper input: 512x512x119 at
// 0.27x0.27x1.4mm).
func KneePhantom(nx, ny, nz int) *Image {
	spacing := geom.Vec3{X: 1, Y: 1, Z: 1}
	return KneeScene(nx, ny, nz, spacing).Voxelize(nx, ny, nz, spacing)
}

// HeadNeckScene models the SPL head-neck atlas substitution: skull
// envelope with brain, an airway tube, and a stack of vertebrae.
func HeadNeckScene(nx, ny, nz int, spacing geom.Vec3) *Scene {
	w := geom.Vec3{X: float64(nx) * spacing.X, Y: float64(ny) * spacing.Y, Z: float64(nz) * spacing.Z}
	cx, cy := 0.5*w.X, 0.45*w.Y
	regions := []Region{
		// Head + neck envelope.
		{Label: 1, Solid: Ellipsoid{
			Center: geom.Vec3{X: cx, Y: cy, Z: 0.68 * w.Z},
			Radii:  geom.Vec3{X: 0.33 * w.X, Y: 0.36 * w.Y, Z: 0.28 * w.Z}}},
		{Label: 1, Solid: Capsule{
			A:      geom.Vec3{X: cx, Y: cy, Z: 0.55 * w.Z},
			B:      geom.Vec3{X: cx, Y: cy, Z: 0.20 * w.Z},
			Radius: 0.16 * w.X}},
		// Brain.
		{Label: 2, Solid: Ellipsoid{
			Center: geom.Vec3{X: cx, Y: cy, Z: 0.72 * w.Z},
			Radii:  geom.Vec3{X: 0.24 * w.X, Y: 0.27 * w.Y, Z: 0.19 * w.Z}}},
		// Airway.
		{Label: 3, Solid: Capsule{
			A:      geom.Vec3{X: cx, Y: 0.30 * w.Y, Z: 0.50 * w.Z},
			B:      geom.Vec3{X: cx, Y: 0.30 * w.Y, Z: 0.10 * w.Z},
			Radius: 0.030 * w.X}},
	}
	// Cervical vertebrae: five stacked lens-shaped bodies.
	for v := 0; v < 5; v++ {
		z := (0.12 + 0.08*float64(v)) * w.Z
		regions = append(regions, Region{Label: 4, Solid: Ellipsoid{
			Center: geom.Vec3{X: cx, Y: 0.58 * w.Y, Z: z},
			Radii:  geom.Vec3{X: 0.07 * w.X, Y: 0.06 * w.Y, Z: 0.030 * w.Z}}})
	}
	return &Scene{Regions: regions}
}

// HeadNeckPhantom voxelizes HeadNeckScene (paper input: 255x255x229 at
// 0.97x0.97x1.4mm).
func HeadNeckPhantom(nx, ny, nz int) *Image {
	spacing := geom.Vec3{X: 1, Y: 1, Z: 1}
	return HeadNeckScene(nx, ny, nz, spacing).Voxelize(nx, ny, nz, spacing)
}

// VesselScene models a branching vessel tree inside a tissue block — a
// stress case for thin structures and junctions (the paper's intro
// motivates blood-flow simulation; vessels are the canonical
// hard-to-mesh anatomy). A trunk splits into two branches, each
// splitting again, with radii shrinking by branching generation.
func VesselScene(nx, ny, nz int, spacing geom.Vec3) *Scene {
	w := geom.Vec3{X: float64(nx) * spacing.X, Y: float64(ny) * spacing.Y, Z: float64(nz) * spacing.Z}
	regions := []Region{
		// Embedding tissue.
		{Label: 1, Solid: Ellipsoid{
			Center: w.Scale(0.5),
			Radii:  geom.Vec3{X: 0.42 * w.X, Y: 0.42 * w.Y, Z: 0.44 * w.Z}}},
	}
	r0 := 0.045 * w.X
	type seg struct {
		a, b geom.Vec3
		r    float64
	}
	root := seg{
		a: geom.Vec3{X: 0.5 * w.X, Y: 0.5 * w.Y, Z: 0.10 * w.Z},
		b: geom.Vec3{X: 0.5 * w.X, Y: 0.5 * w.Y, Z: 0.45 * w.Z},
		r: r0,
	}
	segs := []seg{root}
	// Two generations of symmetric branching.
	level := []seg{root}
	for gen := 0; gen < 2; gen++ {
		var next []seg
		spread := 0.16 * w.X / float64(gen+1)
		up := 0.22 * w.Z
		for i, s := range level {
			dirSign := 1.0
			if i%2 == 1 {
				dirSign = -1
			}
			_ = dirSign
			for _, sx := range []float64{-1, 1} {
				child := seg{
					a: s.b,
					b: s.b.Add(geom.Vec3{X: sx * spread, Y: 0.5 * sx * spread * float64(gen), Z: up}),
					r: s.r * 0.75,
				}
				next = append(next, child)
				segs = append(segs, child)
			}
		}
		level = next
	}
	for _, s := range segs {
		regions = append(regions, Region{Label: 2, Solid: Capsule{A: s.a, B: s.b, Radius: s.r}})
	}
	return &Scene{Regions: regions}
}

// VesselPhantom voxelizes VesselScene at unit spacing.
func VesselPhantom(n int) *Image {
	spacing := geom.Vec3{X: 1, Y: 1, Z: 1}
	return VesselScene(n, n, n, spacing).Voxelize(n, n, n, spacing)
}
