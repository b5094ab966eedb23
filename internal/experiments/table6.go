package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/edt"
	"repro/internal/img"
	"repro/internal/quality"
)

// Table6Row is one mesher column of paper Table 6 for one input.
type Table6Row struct {
	Input  string
	Mesher string // "PI2M", "SeqMesher (CGAL stand-in)", "PLCMesher (TetGen stand-in)"

	Tetrahedra     int
	Time           time.Duration
	TetraPerSecond float64

	MaxRadiusEdge    float64
	MinBoundaryAngle float64
	MinDihedral      float64
	MaxDihedral      float64
	Hausdorff        float64 // NaN where not applicable (PLC input)
}

// Table6 runs the single-threaded comparison of PI2M against the two
// baselines on the knee and head-neck phantoms (paper Section 7). PI2M
// runs with one worker, carrying its full synchronization machinery,
// exactly as the paper stresses.
func Table6(p Params) ([]Table6Row, error) {
	p = p.withDefaults()
	inputs := []struct {
		name string
		im   *img.Image
	}{
		{"knee atlas", Knee(p.ImageScale)},
		{"head-neck atlas", HeadNeck(p.ImageScale)},
	}

	var rows []Table6Row
	for _, in := range inputs {
		tr := edt.Compute(in.im, 1)

		// PI2M, single thread.
		res, err := core.Run(core.Config{
			Image:             in.im,
			Workers:           1,
			ContentionManager: "local",
			Balancer:          "hws",
		})
		if err != nil {
			return nil, err
		}
		pi := res.Snapshot()
		piTris := pi.BoundaryTriangles()
		rows = append(rows, table6Row(in.name, "PI2M",
			res.Elements(), res.TotalTime,
			quality.Evaluate(pi.Verts, pi.Cells, piTris),
			quality.SymmetricHausdorff(piTris, in.im, tr)))

		// CGAL stand-in. As in the paper, its sizing parameter is
		// calibrated so it produces a mesh of similar size to PI2M's
		// ("we set the sizing parameters of CGAL and TetGen to values
		// that produced meshes of similar size to ours").
		seqDelta := 2 * in.im.MinSpacing()
		seq, err := baseline.SeqMesh(in.im, baseline.Options{Delta: seqDelta})
		if err != nil {
			return nil, err
		}
		for iter := 0; iter < 2; iter++ {
			ratio := float64(seq.Elements()) / float64(res.Elements())
			if ratio > 0.85 && ratio < 1.18 {
				break
			}
			seqDelta *= math.Cbrt(ratio)
			seq, err = baseline.SeqMesh(in.im, baseline.Options{Delta: seqDelta})
			if err != nil {
				return nil, err
			}
		}
		seqSnap := core.SnapshotOf(seq.Mesh, seq.Final, in.im)
		seqTris := seqSnap.BoundaryTriangles()
		rows = append(rows, table6Row(in.name, "SeqMesher (CGAL stand-in)",
			seq.Elements(), seq.TotalTime,
			quality.Evaluate(seqSnap.Verts, seqSnap.Cells, seqTris),
			quality.SymmetricHausdorff(seqTris, in.im, tr)))

		// TetGen stand-in: receives PI2M's boundary triangulation.
		plc, err := baseline.PLCMesh(in.im, piTris, baseline.Options{})
		if err != nil {
			return nil, err
		}
		r := table6Row(in.name, "PLCMesher (TetGen stand-in)",
			plc.Elements(), plc.TotalTime,
			core.SnapshotOf(plc.Mesh, plc.Final, in.im).Quality(),
			-1) // fidelity not reported: the surface was its input
		rows = append(rows, r)
	}
	return rows, nil
}

func table6Row(input, mesher string, tets int, t time.Duration, q quality.Stats, hausdorff float64) Table6Row {
	return Table6Row{
		Input:            input,
		Mesher:           mesher,
		Tetrahedra:       tets,
		Time:             t,
		TetraPerSecond:   float64(tets) / t.Seconds(),
		MaxRadiusEdge:    q.MaxRadiusEdge,
		MinBoundaryAngle: q.MinBoundaryPlanarAngle,
		MinDihedral:      q.MinDihedral,
		MaxDihedral:      q.MaxDihedral,
		Hausdorff:        hausdorff,
	}
}

// FormatTable6 renders the single-threaded comparison.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	byInput := map[string][]Table6Row{}
	var order []string
	for _, r := range rows {
		if len(byInput[r.Input]) == 0 {
			order = append(order, r.Input)
		}
		byInput[r.Input] = append(byInput[r.Input], r)
	}
	for _, input := range order {
		group := byInput[input]
		fmt.Fprintf(&b, "Table 6 — single-threaded comparison (%s)\n", input)
		fmt.Fprintf(&b, "%-30s", "")
		for _, r := range group {
			fmt.Fprintf(&b, "%30s", r.Mesher)
		}
		b.WriteByte('\n')
		line := func(label string, f func(Table6Row) string) {
			fmt.Fprintf(&b, "%-30s", label)
			for _, r := range group {
				fmt.Fprintf(&b, "%30s", f(r))
			}
			b.WriteByte('\n')
		}
		line("#tetrahedra / second", func(r Table6Row) string { return fmt.Sprintf("%.0f", r.TetraPerSecond) })
		line("time", func(r Table6Row) string { return fmt.Sprintf("%.2f secs", r.Time.Seconds()) })
		line("#tetrahedra", func(r Table6Row) string { return fmt.Sprintf("%d", r.Tetrahedra) })
		line("max radius-edge ratio", func(r Table6Row) string { return fmt.Sprintf("%.2f", r.MaxRadiusEdge) })
		line("min boundary planar angle", func(r Table6Row) string { return fmt.Sprintf("%.1f deg", r.MinBoundaryAngle) })
		line("(min,max) dihedral angles", func(r Table6Row) string {
			return fmt.Sprintf("(%.1f, %.1f)", r.MinDihedral, r.MaxDihedral)
		})
		line("Hausdorff distance", func(r Table6Row) string {
			if r.Hausdorff < 0 {
				return "n/a (PLC input)"
			}
			return fmt.Sprintf("%.2f", r.Hausdorff)
		})
		b.WriteByte('\n')
	}
	return b.String()
}
