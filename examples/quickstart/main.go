// Quickstart: mesh a sphere phantom through the public pi2m API and
// export the result (the paper's Figure 1 pipeline: virtual box →
// refinement → final mesh of cells with circumcenters inside O).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	pi2m "repro"
)

func main() {
	// 1. A segmented image. Real users load an NRRD label map with
	//    pi2m.ReadNRRDFile; here a synthetic sphere (64^3, one tissue).
	image := pi2m.SpherePhantom(64)

	// 2. Mesh it. Defaults: δ = 2 voxels, radius-edge ≤ 2, boundary
	//    planar angles ≥ 30°, Local-CM, hierarchical work stealing.
	result, err := pi2m.Run(pi2m.Config{Image: image})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the result.
	fmt.Printf("tetrahedra: %d in %v (%.0f elements/sec)\n",
		result.Elements(), result.TotalTime.Round(time.Millisecond),
		result.ElementsPerSecond())

	// The snapshot is the indexed mesh every later step reads.
	mesh := result.Snapshot()
	q := mesh.Quality()
	fmt.Printf("quality: radius-edge ≤ %.2f, dihedral angles in (%.1f°, %.1f°)\n",
		q.MaxRadiusEdge, q.MinDihedral, q.MaxDihedral)

	tris := mesh.BoundaryTriangles()
	topo := pi2m.SurfaceTopology(tris)
	fmt.Printf("topology: %d boundary triangles, Euler characteristic %d (sphere = 2), watertight %v\n",
		len(tris), topo.Euler, topo.Closed)

	// 4. Export for ParaView / Meshlab.
	f, err := os.Create("sphere.vtk")
	if err != nil {
		log.Fatal(err)
	}
	if err := pi2m.WriteVTKSnapshot(f, mesh); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	if err := pi2m.WriteOFFFile("sphere-surface.off", tris); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote sphere.vtk and sphere-surface.off")
}
