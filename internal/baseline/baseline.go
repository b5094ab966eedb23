// Package baseline provides the two sequential meshers PI2M is
// compared against in the paper's Section 7 (Table 6).
//
// CGAL and TetGen themselves are C++ codebases that cannot be linked
// here; instead, this package implements faithful stand-ins that
// differ from PI2M the way those tools differ:
//
//   - SeqMesher stands in for CGAL's Isosurface-based mesh_3: a purely
//     sequential Delaunay refiner working directly on the segmented
//     image with a FIFO refinement queue, no speculative machinery and
//     no point removals.
//   - PLCMesher stands in for TetGen: a PLC-based volume mesher that
//     receives an already-recovered boundary triangulation (exactly
//     what the paper feeds TetGen) and only fills the volume with
//     quality tetrahedra, skipping surface recovery and the distance
//     transform entirely.
//
// Both use the same Bowyer-Watson kernel as PI2M — the paper makes the
// same point about CGAL and TetGen ("both perform insertions via the
// Bowyer-Watson kernel, as is the case of PI2M, [so] such a comparison
// is quite insightful").
package baseline

import (
	"fmt"
	"math"
	"time"

	"repro/internal/arena"
	"repro/internal/delaunay"
	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
	"repro/internal/spatial"
)

// Result is the outcome of a baseline run.
type Result struct {
	Mesh  *delaunay.Mesh
	Final []arena.Handle

	// TotalTime includes pre-processing (the EDT for SeqMesher);
	// MeshTime is refinement only.
	TotalTime time.Duration
	MeshTime  time.Duration

	Inserts int64
}

// Elements returns the final tetrahedron count.
func (r *Result) Elements() int { return len(r.Final) }

// ElementsPerSecond is the generation rate of Table 6.
func (r *Result) ElementsPerSecond() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return float64(r.Elements()) / r.TotalTime.Seconds()
}

// Options configures the baselines with the same knobs as PI2M.
type Options struct {
	Delta         float64 // isosurface sampling spacing (SeqMesher)
	MaxRadiusEdge float64 // quality bound (default 2)
	MinFacetAngle float64 // boundary planar angle bound (default 30)
	SizeBound     float64 // uniform sf(.) (default +Inf)
}

func (o Options) withDefaults(im *img.Image) Options {
	if o.Delta == 0 {
		o.Delta = 2 * im.MinSpacing()
	}
	if o.MaxRadiusEdge == 0 {
		o.MaxRadiusEdge = 2
	}
	if o.MinFacetAngle == 0 {
		o.MinFacetAngle = 30
	}
	if o.SizeBound == 0 {
		o.SizeBound = math.Inf(1)
	}
	return o
}

// SeqMesh runs the CGAL stand-in on a segmented image.
func SeqMesh(im *img.Image, opt Options) (*Result, error) {
	opt = opt.withDefaults(im)
	start := time.Now()
	tr := edt.Compute(im, 1)

	lo, hi := im.Bounds()
	m, err := delaunay.NewMesh(lo, hi)
	if err != nil {
		return nil, err
	}
	// A sequential tool shares its mesh with nobody: no vertex locks,
	// no bucket locks.
	m.SetSingleOwner(true)
	w := m.NewWorker(0)
	isoGrid := spatial.NewGrid(lo, hi, opt.Delta)
	isoGrid.SetSingleOwner(true)
	meshStart := time.Now()

	s := &seqMesher{
		im: im, tr: tr, m: m, w: w, iso: isoGrid, opt: opt,
	}
	m.LiveCells(func(h arena.Handle, c *delaunay.Cell) {
		s.queue = append(s.queue, queued{h, c.Gen()})
	})
	if err := s.refine(); err != nil {
		return nil, err
	}

	res := &Result{Mesh: m, MeshTime: time.Since(meshStart), Inserts: s.inserts}
	m.LiveCells(func(h arena.Handle, c *delaunay.Cell) {
		if im.LabelAt(c.CC) != 0 {
			res.Final = append(res.Final, h)
		}
	})
	res.TotalTime = time.Since(start)
	return res, nil
}

type seqMesher struct {
	im  *img.Image
	tr  *edt.Transform
	m   *delaunay.Mesh
	w   *delaunay.Worker
	iso *spatial.Grid
	opt Options

	queue   []queued // FIFO
	head    int
	inserts int64
}

// queued is a FIFO entry: a cell and the generation of its slot when it
// was queued. The single-owner mesh reuses the slots of killed cells,
// and a FIFO meets a killed cell's entry before the entry of the cell
// that reused its slot, so the handle alone would name the newer cell.
type queued struct {
	h   arena.Handle
	gen uint32
}

// appendQueued queues the cells an operation created.
func appendQueued(q []queued, m *delaunay.Mesh, created []arena.Handle) []queued {
	for _, h := range created {
		q = append(q, queued{h, m.Cells.At(h).Gen()})
	}
	return q
}

// at returns the queued cell, or nil once it has been killed.
func (q queued) at(m *delaunay.Mesh) *delaunay.Cell {
	c := m.Cells.At(q.h)
	if c.Dead() || c.Gen() != q.gen {
		return nil
	}
	return c
}

const maxSeqOps = 200_000_000 // hard safety bound

func (s *seqMesher) refine() error {
	for s.head < len(s.queue) {
		if s.inserts > maxSeqOps {
			return fmt.Errorf("baseline: runaway refinement")
		}
		q := s.queue[s.head]
		s.head++
		// Periodically drop the consumed queue prefix.
		if s.head > 1<<16 && s.head*2 > len(s.queue) {
			s.queue = append(s.queue[:0], s.queue[s.head:]...)
			s.head = 0
		}
		c := q.at(s.m)
		if c == nil {
			continue
		}
		p, kind, ok := s.classify(c)
		if !ok {
			continue
		}
		res, st := s.w.Insert(p, kind, q.h)
		switch st {
		case delaunay.OK:
			s.inserts++
			if kind == delaunay.KindIso || kind == delaunay.KindSurface {
				s.iso.Add(p, uint32(res.NewVert))
			}
			s.queue = appendQueued(s.queue, s.m, res.Created)
		case delaunay.Failed, delaunay.Outside, delaunay.Stale:
			// Re-examined when neighbors change; drop.
		default:
			return fmt.Errorf("baseline: unexpected status %v", st)
		}
	}
	return nil
}

// classify mirrors PI2M's rules R1-R5 (no removals — CGAL's refiner
// does not delete points either).
func (s *seqMesher) classify(c *delaunay.Cell) (geom.Vec3, delaunay.VertKind, bool) {
	if math.IsInf(c.R2, 1) {
		return geom.Vec3{}, 0, false
	}
	cc := c.CC
	rad := math.Sqrt(c.R2)
	im := s.im

	lo, hi := im.Bounds()
	eps := im.MinSpacing() / 2
	q := cc.Max(lo.Add(geom.Vec3{X: eps, Y: eps, Z: eps})).
		Min(hi.Sub(geom.Vec3{X: eps, Y: eps, Z: eps}))
	sv, haveSurface := s.tr.NearestSurfaceVoxel(q)
	if haveSurface {
		dist := cc.Dist(sv)
		if dist <= rad {
			dir := sv.Sub(cc)
			if n := dir.Norm(); n > 0 {
				dir = dir.Scale((n + 2*im.MinSpacing()) / n)
			} else {
				dir = geom.Vec3{X: 2 * im.MinSpacing()}
			}
			if z, ok := im.SurfacePoint(cc, cc.Add(dir), 1e-3*im.MinSpacing()); ok &&
				!s.iso.AnyWithin(z, s.opt.Delta) {
				return z, delaunay.KindIso, true
			}
			if rad > 2*s.opt.Delta {
				return cc, delaunay.KindCircum, true
			}
		}
		// Facet rule.
		m := s.m
		for f := 0; f < 4; f++ {
			nbh := c.Neighbor(f)
			if nbh == arena.Nil {
				continue
			}
			nb := m.Cells.At(nbh)
			if math.IsInf(nb.R2, 1) {
				continue
			}
			segLen := cc.Dist(nb.CC)
			if dist := cc.Dist(sv); dist > segLen+2*im.MinSpacing()+im.Spacing.Norm() {
				continue
			}
			cSurf, ok := im.SurfacePoint(cc, nb.CC, 1e-3*im.MinSpacing())
			if !ok {
				continue
			}
			face := c.Face(f)
			off := false
			for _, vh := range face {
				k := m.Verts.At(vh).Kind
				if k != delaunay.KindIso && k != delaunay.KindSurface {
					off = true
					break
				}
			}
			if !off {
				off = geom.MinTriangleAngle(m.Pos(face[0]), m.Pos(face[1]), m.Pos(face[2])) < s.opt.MinFacetAngle
			}
			if off && !s.iso.AnyWithin(cSurf, s.opt.Delta/4) {
				return cSurf, delaunay.KindSurface, true
			}
		}
	}
	if im.LabelAt(cc) != 0 {
		se := geom.ShortestEdge(s.m.Pos(c.V[0]), s.m.Pos(c.V[1]), s.m.Pos(c.V[2]), s.m.Pos(c.V[3]))
		if se > 0 && rad/se > s.opt.MaxRadiusEdge {
			return cc, delaunay.KindCircum, true
		}
		if rad > s.opt.SizeBound {
			return cc, delaunay.KindCircum, true
		}
	}
	return geom.Vec3{}, 0, false
}

// PLCMesh runs the TetGen stand-in: it receives the boundary
// triangulation recovered by PI2M (the paper passes TetGen "the
// triangulated iso-surfaces as recovered by our method"), inserts all
// its vertices, and fills the volume with quality tetrahedra.
func PLCMesh(im *img.Image, tris []quality.Triangle, opt Options) (*Result, error) {
	opt = opt.withDefaults(im)
	start := time.Now()

	lo, hi := im.Bounds()
	m, err := delaunay.NewMesh(lo, hi)
	if err != nil {
		return nil, err
	}
	m.SetSingleOwner(true)
	w := m.NewWorker(0)

	// The volume phase meets the cells in the order they were created,
	// so every cell the vertex phase creates is queued as it appears;
	// the ones it kills again are skipped when reached.
	queue := make([]queued, 0, 1024)
	m.LiveCells(func(h arena.Handle, c *delaunay.Cell) { queue = append(queue, queued{h, c.Gen()}) })

	// Insert the PLC vertices (deduplicated by exact position).
	seen := make(map[geom.Vec3]bool)
	hint := m.FirstCell()
	var inserts int64
	for _, t := range tris {
		for _, p := range []geom.Vec3{t.A, t.B, t.C} {
			if seen[p] {
				continue
			}
			seen[p] = true
			res, st := w.Insert(p, delaunay.KindIso, hint)
			switch st {
			case delaunay.OK:
				inserts++
				hint = res.Created[0]
				queue = appendQueued(queue, m, res.Created)
			case delaunay.Failed, delaunay.Stale:
				// duplicate raced in; harmless
			default:
				return nil, fmt.Errorf("baseline: PLC vertex insertion: %v", st)
			}
		}
	}

	// Volume filling: quality + size refinement only (rules R4/R5).
	head := 0
	for head < len(queue) {
		if inserts > maxSeqOps {
			return nil, fmt.Errorf("baseline: runaway refinement")
		}
		q := queue[head]
		head++
		if head > 1<<16 && head*2 > len(queue) {
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
		c := q.at(m)
		if c == nil || math.IsInf(c.R2, 1) {
			continue
		}
		cc := c.CC
		if im.LabelAt(cc) == 0 {
			continue
		}
		rad := math.Sqrt(c.R2)
		se := geom.ShortestEdge(m.Pos(c.V[0]), m.Pos(c.V[1]), m.Pos(c.V[2]), m.Pos(c.V[3]))
		poor := se > 0 && rad/se > opt.MaxRadiusEdge
		if !poor && rad <= opt.SizeBound {
			continue
		}
		res, st := w.Insert(cc, delaunay.KindCircum, q.h)
		switch st {
		case delaunay.OK:
			inserts++
			queue = appendQueued(queue, m, res.Created)
		case delaunay.Failed, delaunay.Outside, delaunay.Stale:
		default:
			return nil, fmt.Errorf("baseline: volume refinement: %v", st)
		}
	}

	res := &Result{Mesh: m, Inserts: inserts}
	m.LiveCells(func(h arena.Handle, c *delaunay.Cell) {
		if im.LabelAt(c.CC) != 0 {
			res.Final = append(res.Final, h)
		}
	})
	res.MeshTime = time.Since(start)
	res.TotalTime = res.MeshTime
	return res, nil
}
