package quality_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/quality"
)

// Example evaluates the paper's Table 6 quality columns and the
// Theorem 1 topology check on a meshed torus.
func Example() {
	image := img.TorusPhantom(32)
	res, err := core.Run(core.Config{Image: image, Workers: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	snap := res.Snapshot()
	tris := snap.BoundaryTriangles()
	s := quality.Evaluate(snap.Verts, snap.Cells, tris)
	topo := quality.SurfaceTopology(tris)
	fmt.Println("radius-edge within bound:", s.MaxRadiusEdge <= 2.0+1e-9)
	fmt.Println("torus Euler characteristic:", topo.Euler)
	fmt.Println("watertight:", topo.Closed)
	// Output:
	// radius-edge within bound: true
	// torus Euler characteristic: 0
	// watertight: true
}
