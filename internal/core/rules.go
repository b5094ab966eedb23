package core

import (
	"math"

	"repro/internal/arena"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/img"
)

// Rule identifies which refinement rule (Section 3) fired.
type Rule int

// The refinement rules.
const (
	RuleNone Rule = iota
	R1            // isosurface sample for a surface-crossing circumball
	R2            // circumcenter of a large surface-crossing tetrahedron
	R3            // surface-center of a boundary facet
	R4            // circumcenter of a poor-quality interior tetrahedron
	R5            // circumcenter of an oversized interior tetrahedron
	R6            // removal of circumcenters crowding an isosurface vertex
)

func (r Rule) String() string {
	switch r {
	case R1:
		return "R1"
	case R2:
		return "R2"
	case R3:
		return "R3"
	case R4:
		return "R4"
	case R5:
		return "R5"
	case R6:
		return "R6"
	}
	return "none"
}

// action is a planned refinement operation for one poor element.
type action struct {
	rule  Rule
	kind  delaunay.VertKind
	point geom.Vec3
}

// surfaceTol is the bisection tolerance for isosurface intersections,
// as a fraction of the minimum voxel spacing.
const surfaceTol = 1e-3

// deltaAt evaluates the (possibly spatially varying) sampling spacing
// at p, clamped so the sparsity grid and termination bounds stay
// valid.
func (r *Refiner) deltaAt(p geom.Vec3) float64 {
	if r.cfg.DeltaFunc == nil {
		return r.cfg.Delta
	}
	d := r.cfg.DeltaFunc(p)
	if d > r.cfg.Delta {
		return r.cfg.Delta
	}
	if min := r.cfg.Delta / 4; d < min {
		return min
	}
	return d
}

// imageConsts are the quantities the rules derive from the image and
// the configuration alone. The image is immutable for the whole run,
// so they are computed once per run instead of once per question.
type imageConsts struct {
	// clampLo/clampHi bound the EDT lookup: the image box shrunk by half
	// the minimum spacing (huge early cells have circumcenters far
	// outside the image).
	clampLo, clampHi geom.Vec3
	// overshoot + diagonal is how far beyond a ball's or segment's own
	// reach the voxelized surface can still touch it: two minimum
	// spacings of marching overshoot plus one voxel diagonal, since
	// distances are measured to voxel centers. nearMargin is their sum;
	// the parts stay for the one test that adds them in sequence
	// (floating-point addition does not associate, and decisions are
	// pinned bit for bit).
	overshoot, diagonal, nearMargin float64
	tol                             float64         // bisection tolerance of a surface crossing
	facetBound                      geom.AngleBound // R3's planar angle bound
}

func newImageConsts(im *img.Image, cfg Config) imageConsts {
	lo, hi := im.Bounds()
	ms := im.MinSpacing()
	eps := geom.Vec3{X: ms / 2, Y: ms / 2, Z: ms / 2}
	return imageConsts{
		clampLo:    lo.Add(eps),
		clampHi:    hi.Sub(eps),
		overshoot:  2 * ms,
		diagonal:   im.Spacing.Norm(),
		nearMargin: 2*ms + im.Spacing.Norm(),
		tol:        surfaceTol * ms,
		facetBound: geom.NewAngleBound(cfg.MinFacetAngle),
	}
}

// nearest is a cell's one question to the distance transform: the
// center of the surface voxel nearest its circumcenter. The popping
// thread asks it for the cheap poorness test and hands the answer to
// the full classify, which does not ask again. ok is false when the
// image has no surface voxels.
type nearest struct {
	sv geom.Vec3
	ok bool
}

// nearestSurface looks up the surface voxel nearest p, clamping points
// outside the image onto its boundary.
func (r *Refiner) nearestSurface(p geom.Vec3) nearest {
	lo, hi := r.ic.clampLo, r.ic.clampHi
	q := geom.Vec3{X: clamp(p.X, lo.X, hi.X), Y: clamp(p.Y, lo.Y, hi.Y), Z: clamp(p.Z, lo.Z, hi.Z)}
	sv, ok := r.edt.NearestSurfaceVoxel(q)
	return nearest{sv: sv, ok: ok}
}

// clamp limits v to [lo, hi]; a NaN passes through, as it does through
// math.Max and math.Min, which are calls where this is two compares.
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// isoPointNear computes ẑ, the isosurface point closest to p (paper
// Section 3): the EDT yields the nearest surface voxel q, and the ray
// p→q is marched and bisected across the label interface. The ray is
// extended one voxel past q because the sub-voxel interface can lie
// just behind the voxel center.
func (r *Refiner) isoPointNear(p geom.Vec3, sv geom.Vec3) (geom.Vec3, bool) {
	dir := sv.Sub(p)
	if n := dir.Norm(); n > 0 {
		dir = dir.Scale((n + r.ic.overshoot) / n)
	} else {
		dir = geom.Vec3{X: r.ic.overshoot}
	}
	return r.im.SurfacePoint(p, p.Add(dir), r.ic.tol)
}

// poorQuick is the cheap poorness test asked of a popped cell before
// the full classify: a conservative over-approximation of R1, R2, R4
// and R5, but not of R3 (see its end), so it gates classify rather
// than merely shortcutting it. The expensive geometry (surface
// marches) is left to classify, which reuses the surface query
// returned here. c's inside flag must already be set.
func (r *Refiner) poorQuick(c *delaunay.Cell) (nearest, bool) {
	if math.IsInf(c.R2, 1) {
		return nearest{}, false
	}
	cc := c.CC
	rad := math.Sqrt(c.R2)
	near := r.nearestSurface(cc)
	if near.ok && cc.Dist(near.sv) <= rad+r.ic.nearMargin {
		return near, true // R1/R2/R3 candidate near the surface
	}
	if c.Inside() {
		se := shortestEdge(r.mesh, c)
		if se > 0 && rad/se > r.cfg.MaxRadiusEdge {
			return near, true // R4
		}
		if rad > r.cfg.SizeFunc(cc) {
			return near, true // R5
		}
	}
	// R3 across a facet whose Voronoi edge strays near the surface
	// while this circumcenter is far: the neighbor's own quick test
	// covers it from the other side, and the full classify checks both
	// directions.
	return near, false
}

// classify decides which rule, if any, applies to live cell c and
// returns the operation to perform. near is poorQuick's surface query
// for c. Rules are evaluated in the paper's order R1..R5; R6 is
// triggered separately when isosurface vertices are committed.
func (r *Refiner) classify(c *delaunay.Cell, near nearest) (action, bool) {
	if c.Dead() {
		return action{}, false
	}
	if math.IsInf(c.R2, 1) {
		return action{}, false
	}
	cc := c.CC
	rad := math.Sqrt(c.R2)

	dist := math.Inf(1)
	if near.ok {
		dist = cc.Dist(near.sv)
	}
	if dist <= rad {
		// The circumball intersects ∂O.
		// R1: sample the isosurface at ẑ if no sample is within δ(ẑ).
		if z, ok := r.isoPointNear(cc, near.sv); ok && !r.isoGrid.AnyWithin(z, r.deltaAt(z)) {
			return action{rule: R1, kind: delaunay.KindIso, point: z}, true
		}
		// R2: large surface-crossing tetrahedra are split.
		if rad > 2*r.deltaAt(cc) {
			return action{rule: R2, kind: delaunay.KindCircum, point: cc}, true
		}
	}

	// R3: boundary facets (Voronoi edge crosses ∂O) with a small
	// planar angle or a vertex off the isosurface get their
	// surface-center inserted. A δ/4 sparsity gate guarantees
	// termination on the voxelized (non-smooth) isosurface. The
	// questions are asked cheapest first: marching the Voronoi edge is
	// the dear one, so it is asked only of a facet that would fire.
	m := r.mesh
	// offVerts counts c's vertices that are not isosurface samples (off
	// marks them), looked up once for all four facets, when the first
	// facet gets that far.
	offVerts, off := -1, [4]bool{}
	for f := 0; f < 4; f++ {
		nbh := c.Neighbor(f)
		if nbh == arena.Nil {
			continue
		}
		nb := m.Cells.At(nbh)
		if math.IsInf(nb.R2, 1) {
			continue
		}
		// Every point of the Voronoi edge is at least dist - |edge| from
		// the surface, so the edge cannot cross ∂O when dist exceeds its
		// length (plus the voxel-quantization margin).
		if near.ok && dist > cc.Dist(nb.CC)+r.ic.overshoot+r.ic.diagonal {
			continue
		}
		if offVerts < 0 {
			offVerts = 0
			for i, vh := range c.V {
				if k := m.Verts.At(vh).Kind; k != delaunay.KindIso && k != delaunay.KindSurface {
					off[i] = true
					offVerts++
				}
			}
		}
		// Facet f is the three vertices other than vertex f.
		offSurface := offVerts > 1 || (offVerts == 1 && !off[f])
		if !offSurface {
			face := c.Face(f)
			if !r.ic.facetBound.MinAngleBelow(m.Pos(face[0]), m.Pos(face[1]), m.Pos(face[2])) {
				continue
			}
		}
		cSurf, ok := r.im.SurfacePoint(cc, nb.CC, r.ic.tol)
		if ok && !r.isoGrid.AnyWithin(cSurf, r.deltaAt(cSurf)/4) {
			return action{rule: R3, kind: delaunay.KindSurface, point: cSurf}, true
		}
	}

	// Interior rules need the circumcenter inside O.
	if c.Inside() {
		// R4: radius-edge quality.
		se := shortestEdge(m, c)
		if se > 0 && rad/se > r.cfg.MaxRadiusEdge {
			return action{rule: R4, kind: delaunay.KindCircum, point: cc}, true
		}
		// R5: user size function.
		if rad > r.cfg.SizeFunc(cc) {
			return action{rule: R5, kind: delaunay.KindCircum, point: cc}, true
		}
	}
	return action{}, false
}

func shortestEdge(m *delaunay.Mesh, c *delaunay.Cell) float64 {
	return geom.ShortestEdge(m.Pos(c.V[0]), m.Pos(c.V[1]), m.Pos(c.V[2]), m.Pos(c.V[3]))
}
