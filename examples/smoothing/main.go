// Smoothing: the paper's future-work extension (Section 7) — CFD
// applications such as respiratory airway modeling want smooth mesh
// boundaries, but smoothing "tends to deteriorate quality" and must
// conserve volume. This example meshes the head-neck phantom (which
// contains an airway tube), applies volume-conserving Taubin smoothing
// to the boundary, and reports what happened to volume, roughness and
// element quality.
//
//	go run ./examples/smoothing
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/meshio"
	"repro/internal/smooth"
)

func main() {
	image := img.HeadNeckPhantom(64, 64, 64)
	result, err := core.Run(core.Config{Image: image, LivelockTimeout: time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meshed %d tetrahedra\n", result.Elements())

	mesh := smooth.New(result.Snapshot())
	fmt.Printf("extracted: %d vertices, %d cells, %d boundary triangles\n",
		len(mesh.Verts), len(mesh.Cells), len(mesh.BoundaryTris))

	v0 := mesh.Volume()
	min0 := mesh.MinCellVolume()
	stats := mesh.Taubin(10, 0.5, -0.53)

	fmt.Println("\nvolume-conserving Taubin smoothing (10 iterations, λ=0.5 μ=-0.53):")
	fmt.Printf("  volume        %12.1f -> %12.1f (drift %+.3f%%)\n",
		v0, mesh.Volume(), 100*(mesh.Volume()-v0)/v0)
	fmt.Printf("  roughness     dropped by %.1f%%\n", 100*stats.RoughnessDrop)
	fmt.Printf("  displacements %d applied, %d reverted by the inversion guard\n",
		stats.Moved, stats.Reverted)
	fmt.Printf("  min cell vol  %.4g -> %.4g (still positive: %v)\n",
		min0, mesh.MinCellVolume(), mesh.MinCellVolume() > 0)

	f, err := os.Create("headneck-smoothed.vtk")
	if err != nil {
		log.Fatal(err)
	}
	if err := meshio.WriteVTKSnapshot(f, mesh.MeshSnapshot); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote headneck-smoothed.vtk")
}
