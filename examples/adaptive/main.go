// Adaptive: the trade-off the paper highlights over PLC/voxel methods
// — "great control over the trade-off between quality and fidelity:
// parts of the isosurface of high curvature can be meshed with more
// elements" (Section 2). The vessel-tree phantom is meshed three ways:
// uniformly coarse, uniformly fine, and adaptively (fine δ only near
// the thin vessels, via a per-label surface-density function), showing
// the adaptive mesh matches fine-fidelity on the vessels at a fraction
// of the elements. A MaxElements budget caps the run for interactive
// use.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"time"

	pi2m "repro"
)

func mesh(image *pi2m.Image, cfg pi2m.Config) (int, int, time.Duration) {
	cfg.Image = image
	res, err := pi2m.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	vessels := 0
	for _, h := range res.Final {
		if image.LabelAt(res.Mesh.Cells.At(h).CC) == 2 {
			vessels++
		}
	}
	return res.Elements(), vessels, res.TotalTime
}

func main() {
	image := pi2m.VesselPhantom(96)

	// δ near the vessel tree (label 2) vs everywhere else.
	nearVessels := func(p pi2m.Vec3) float64 {
		if image.LabelAt(p) == 2 {
			return 1 // fine (clamped to Delta/4)
		}
		// Also fine just outside the vessel wall.
		for _, d := range []pi2m.Vec3{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}, {Z: 2}, {Z: -2}} {
			if image.LabelAt(p.Add(d)) == 2 {
				return 1.5
			}
		}
		return 8 // coarse elsewhere
	}

	fmt.Println("meshing a branching vessel tree three ways:")
	fmt.Printf("%-22s %10s %14s %10s\n", "", "elements", "vessel cells", "time")

	e, v, d := mesh(image, pi2m.Config{Delta: 8})
	fmt.Printf("%-22s %10d %14d %10v\n", "uniform coarse (δ=8)", e, v, d.Round(time.Millisecond))

	e, v, d = mesh(image, pi2m.Config{Delta: 2})
	fmt.Printf("%-22s %10d %14d %10v\n", "uniform fine (δ=2)", e, v, d.Round(time.Millisecond))

	e, v, d = mesh(image, pi2m.Config{Delta: 8, DeltaFunc: nearVessels})
	fmt.Printf("%-22s %10d %14d %10v\n", "adaptive (δ=8→2)", e, v, d.Round(time.Millisecond))

	// A budgeted run for interactive preview.
	e, v, d = mesh(image, pi2m.Config{Delta: 2, MaxElements: 5000})
	fmt.Printf("%-22s %10d %14d %10v\n", "budgeted (≤5000)", e, v, d.Round(time.Millisecond))
}
