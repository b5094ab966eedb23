// Command pi2m meshes a segmented phantom image and reports quality,
// fidelity, and performance statistics — the end-to-end PI2M pipeline
// of the paper.
//
//	pi2m -phantom abdominal -scale 96 -workers 4 -o mesh.vtk -surface surf.off
//
// The phantom flag selects the synthetic stand-in for the paper's
// input images (Table 3): sphere, torus, abdominal, knee, headneck.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	pi2m "repro"
	"repro/internal/edt"
	"repro/internal/quality"
	"repro/internal/render"
	"repro/internal/smooth"
)

func buildPhantom(name string, scale int) (*pi2m.Image, error) {
	switch name {
	case "sphere":
		return pi2m.SpherePhantom(scale), nil
	case "torus":
		return pi2m.TorusPhantom(scale), nil
	case "abdominal":
		return pi2m.AbdominalPhantom(scale, scale, 2*scale/3), nil
	case "knee":
		return pi2m.KneePhantom(scale, scale, scale), nil
	case "headneck":
		return pi2m.HeadNeckPhantom(scale, scale, scale), nil
	case "vessels":
		return pi2m.VesselPhantom(scale), nil
	}
	return nil, fmt.Errorf("unknown phantom %q", name)
}

// writeTo opens path and streams through fn — every exporter below is
// io.Writer-based, so files, pipes and buffers all work the same way.
func writeTo(path string, fn func(w *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pi2m: ")

	var (
		inFile   = flag.String("in", "", "mesh a segmented uint8 NRRD label image instead of a phantom")
		phantom  = flag.String("phantom", "sphere", "input phantom: sphere|torus|abdominal|knee|headneck|vessels")
		scale    = flag.Int("scale", 64, "phantom edge length in voxels")
		workers  = flag.Int("workers", 0, "refinement threads (0 = GOMAXPROCS)")
		delta    = flag.Float64("delta", 0, "δ sampling parameter in voxels (0 = 2 voxels)")
		size     = flag.Float64("size", 0, "uniform size bound sf(.) in voxels (0 = none)")
		cmName   = flag.String("cm", "local", "contention manager: aggressive|random|global|local")
		balancer = flag.String("balancer", "hws", "load balancer: rws|hws")
		outVTK   = flag.String("o", "", "write the tetrahedral mesh as legacy VTK")
		outOFF   = flag.String("surface", "", "write the boundary triangulation as OFF")
		outPNG   = flag.String("png", "", "render a mid-height cross-section to PNG")
		fidelity = flag.Bool("fidelity", true, "compute the Hausdorff distance")
		smoothIt = flag.Int("smooth", 0, "volume-conserving Taubin smoothing iterations for the output")
		verbose  = flag.Bool("v", false, "print refinement progress")
		clean    = flag.Int("clean", 0, "remove segmentation islands smaller than this many voxels")
		down     = flag.Int("downsample", 0, "halve the image resolution this many times before meshing")
		timeout  = flag.Duration("timeout", 0, "cancel the run after this long, keeping the partial mesh (0 = none)")
		fseed    = flag.Int64("fault-seed", 0, "enable the deterministic fault-injection harness with this seed (0 = off)")
		frate    = flag.Float64("fault-rate", 0.01, "per-check fire probability for injected faults (with -fault-seed)")
	)
	flag.Parse()

	var im *pi2m.Image
	var err error
	if *inFile != "" {
		im, err = pi2m.ReadNRRDFile(*inFile)
	} else {
		im, err = buildPhantom(*phantom, *scale)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *clean > 0 {
		n := im.RemoveIslands(*clean)
		fmt.Printf("cleanup: relabeled %d island voxels\n", n)
	}
	for i := 0; i < *down; i++ {
		im = im.Downsample()
	}

	opts := []pi2m.Option{
		pi2m.WithThreads(*workers),
		pi2m.WithDelta(*delta),
		pi2m.WithContentionManager(*cmName),
		pi2m.WithBalancer(*balancer),
	}
	if *fseed != 0 {
		opts = append(opts, pi2m.WithFaultInjection(*fseed, *frate))
		fmt.Printf("fault injection: seed %d, rate %g\n", *fseed, *frate)
	}
	if *size > 0 {
		opts = append(opts, pi2m.WithSizeFunc(pi2m.SizeFunc(pi2m.UniformSize(*size))))
	}
	if *verbose {
		opts = append(opts, pi2m.WithProgress(func(p pi2m.Progress) {
			fmt.Printf("  ... %8.2fs: %d operations, %d elements\n",
				p.Wall.Seconds(), p.Operations, p.Elements)
		}))
	}

	session, err := pi2m.NewSession(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := session.Run(ctx, im)
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range res.Transitions {
		fmt.Printf("degradation: [%8.2fs] %s: %s\n", tr.Wall.Seconds(), tr.Event, tr.Detail)
	}
	switch res.Status {
	case pi2m.StatusAborted:
		// A partial mesh is still written below; make the cause loud.
		log.Printf("run aborted: %v — the outputs below are PARTIAL", res.Err())
		if res.Livelocked {
			log.Printf("hint: the run stalled (no operation committed for a minute); try -cm local or fewer workers")
		}
	case pi2m.StatusDegraded:
		st := res.Stats
		log.Printf("run degraded: %d recovered panics, %d dropped items, %d callback panics",
			st.RecoveredPanics, st.DroppedItems, st.CallbackPanics)
	}
	if res.Elements() == 0 {
		log.Fatal("no elements were produced; nothing to report or write")
	}

	name := *phantom
	if *inFile != "" {
		name = *inFile
	}
	fmt.Printf("input: %s %dx%dx%d (%d tissues)\n",
		name, im.NX, im.NY, im.NZ, len(im.LabelVolumes()))
	fmt.Printf("elements: %d (%.0f per second)\n", res.Elements(), res.ElementsPerSecond())
	fmt.Printf("time: total %v (EDT %v, refine %v)\n",
		res.TotalTime.Round(time.Millisecond),
		res.EDTTime.Round(time.Millisecond),
		res.RefineTime.Round(time.Millisecond))
	st := res.Stats
	fmt.Printf("operations: %d insertions, %d removals, %d rollbacks\n",
		st.Inserts, st.Removals, st.Rollbacks)
	fmt.Printf("rules: R1=%d R2=%d R3=%d R4=%d R5=%d R6=%d\n",
		st.RuleCounts[1], st.RuleCounts[2], st.RuleCounts[3],
		st.RuleCounts[4], st.RuleCounts[5], st.RuleCounts[6])

	mesh := res.Snapshot()
	tris := mesh.BoundaryTriangles()
	q := quality.Evaluate(mesh.Verts, mesh.Cells, tris)
	fmt.Printf("quality: max radius-edge %.3f, dihedral (%.1f°, %.1f°), min boundary angle %.1f°\n",
		q.MaxRadiusEdge, q.MinDihedral, q.MaxDihedral, q.MinBoundaryPlanarAngle)
	fmt.Printf("boundary: %d triangles\n", len(tris))
	if *fidelity {
		tr := edt.Compute(im, *workers)
		m2s, s2m := quality.Hausdorff(tris, im, tr)
		fmt.Printf("fidelity: Hausdorff mesh→surface %.2f, surface→mesh %.2f (voxels)\n", m2s, s2m)
	}

	if *outVTK != "" {
		out := mesh
		if *smoothIt > 0 {
			sm := smooth.New(mesh)
			st := sm.Taubin(*smoothIt, 0.5, -0.53)
			fmt.Printf("smoothing: roughness -%.1f%%, volume drift %+.3f%%\n",
				100*st.RoughnessDrop, 100*(st.VolumeAfter-st.VolumeBefore)/st.VolumeBefore)
			out = sm.MeshSnapshot
		}
		if err := writeTo(*outVTK, func(w *os.File) error { return pi2m.WriteVTKSnapshot(w, out) }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outVTK)
	}
	if *outOFF != "" {
		if err := writeTo(*outOFF, func(w *os.File) error { return pi2m.WriteOFF(w, tris) }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outOFF)
	}
	if *outPNG != "" {
		_, hi := im.Bounds()
		if err := render.WritePNGFile(*outPNG, mesh, render.Options{Z: hi.Z / 2}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPNG)
	}
}
