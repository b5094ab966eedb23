package pi2m_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"

	pi2m "repro"
)

// ExampleNewSession shows the context-first session API: build a
// session once, run it on an image, inspect the result.
func ExampleNewSession() {
	session, err := pi2m.NewSession(
		pi2m.WithThreads(1),
	)
	if err != nil {
		panic(err)
	}
	defer session.Close()

	image := pi2m.SpherePhantom(24)
	result, err := session.Run(context.Background(), image)
	if err != nil {
		panic(err)
	}

	topo := pi2m.SurfaceTopology(result.Snapshot().BoundaryTriangles())
	fmt.Println("status:", result.Status)
	fmt.Println("closed surface:", topo.Closed, "euler:", topo.Euler)
	// Output:
	// status: completed
	// closed surface: true euler: 2
}

// ExampleSession_Run shows warm reuse: the second Run on a session
// recycles the first run's arenas, grids and distance transform, and
// produces the identical mesh.
func ExampleSession_Run() {
	session, err := pi2m.NewSession(pi2m.WithThreads(1))
	if err != nil {
		panic(err)
	}
	defer session.Close()

	image := pi2m.SpherePhantom(24)
	cold, _ := session.Run(context.Background(), image)
	warm, _ := session.Run(context.Background(), image)

	stats := session.Stats()
	fmt.Println("runs:", stats.Runs, "warm:", stats.WarmRuns, "edt hits:", stats.WarmEDTHits)
	fmt.Println("same element count:", cold.Elements() == warm.Elements())
	// Output:
	// runs: 2 warm: 1 edt hits: 1
	// same element count: true
}

// ExampleWriteVTKSnapshot streams a mesh to any io.Writer — here an
// in-memory buffer — instead of a file path.
func ExampleWriteVTKSnapshot() {
	session, _ := pi2m.NewSession(pi2m.WithThreads(1))
	defer session.Close()
	image := pi2m.SpherePhantom(16)
	result, err := session.Run(context.Background(), image)
	if err != nil {
		panic(err)
	}

	var buf bytes.Buffer
	if err := pi2m.WriteVTKSnapshot(&buf, result.Snapshot()); err != nil {
		panic(err)
	}
	line, _ := bufio.NewReader(&buf).ReadString('\n')
	fmt.Print(line)
	// Output:
	// # vtk DataFile Version 3.0
}

// ExampleWithDeltaFunc trades fidelity for size where it matters: δ
// is fine only on and next to the thin vessels of the vessel-tree
// phantom and coarse elsewhere, so the adaptive mesh is smaller than a
// uniformly fine one. WithMaxElements caps a run for a quick preview.
func ExampleWithDeltaFunc() {
	image := pi2m.VesselPhantom(48)
	mesh := func(opts ...pi2m.Option) *pi2m.Result {
		session, err := pi2m.NewSession(append(opts, pi2m.WithThreads(1))...)
		if err != nil {
			panic(err)
		}
		defer session.Close()
		result, err := session.Run(context.Background(), image)
		if err != nil {
			panic(err)
		}
		return result
	}

	// δ near the vessel tree (label 2) vs everywhere else; values are
	// clamped to [Delta/4, Delta].
	nearVessels := func(p pi2m.Vec3) float64 {
		for _, d := range []pi2m.Vec3{{}, {X: 2}, {X: -2}, {Y: 2}, {Y: -2}, {Z: 2}, {Z: -2}} {
			if image.LabelAt(p.Add(d)) == 2 {
				return 2
			}
		}
		return 8
	}

	fine := mesh(pi2m.WithDelta(2)).Elements()
	adaptive := mesh(pi2m.WithDelta(8), pi2m.WithDeltaFunc(nearVessels))
	budget := fine / 4
	capped := mesh(pi2m.WithDelta(2), pi2m.WithMaxElements(budget))

	fmt.Println("adaptive status:", adaptive.Status)
	fmt.Println("adaptive < fine:", adaptive.Elements() < fine)
	fmt.Println("capped near budget:", capped.Elements() >= budget && capped.Elements() < fine/2)
	// Output:
	// adaptive status: completed
	// adaptive < fine: true
	// capped near budget: true
}

// ExampleAbdominalPhantom meshes a multi-tissue image: every tissue of
// the abdominal phantom gets conforming elements, and the boundary —
// the outer surface plus the interfaces between tissues — has no
// border edge.
func ExampleAbdominalPhantom() {
	session, err := pi2m.NewSession(pi2m.WithThreads(1))
	if err != nil {
		panic(err)
	}
	defer session.Close()
	result, err := session.Run(context.Background(), pi2m.AbdominalPhantom(48, 48, 32))
	if err != nil {
		panic(err)
	}

	mesh := result.Snapshot()
	labels := map[pi2m.Label]bool{}
	for _, l := range mesh.Labels {
		labels[l] = true
	}
	topo := pi2m.SurfaceTopology(mesh.BoundaryTriangles())
	fmt.Println("status:", result.Status)
	fmt.Println("tissue labels:", slices.Sorted(maps.Keys(labels)))
	fmt.Println("closed surface:", topo.BorderEdges == 0)
	// Output:
	// status: completed
	// tissue labels: [1 2 3 4 5 6]
	// closed surface: true
}

// ExampleFEMAssemble runs the simulation the meshes exist for: a
// steady potential on the abdominal phantom with per-tissue
// conductivities, the aorta held at 1 and the outer body surface
// grounded. The solved field stays within its boundary values, the
// discrete maximum principle.
func ExampleFEMAssemble() {
	session, err := pi2m.NewSession(pi2m.WithThreads(1))
	if err != nil {
		panic(err)
	}
	defer session.Close()
	result, err := session.Run(context.Background(), pi2m.AbdominalPhantom(48, 48, 32))
	if err != nil {
		panic(err)
	}
	mesh := result.Snapshot()

	// Conductivity per tissue (arbitrary units): blood conducts best,
	// bone worst; label 1 is the body's soft tissue.
	conductivity, err := pi2m.ConductivityFromLabels(mesh, map[int]float64{
		1: 0.2, 2: 0.5, 3: 0.4, 4: 0.4, 5: 0.02, 6: 0.7,
	}, 0)
	if err != nil {
		panic(err)
	}

	// Every vertex of an aorta (label 6) cell is at potential 1; the
	// exterior vertices that bound only body cells are at 0.
	dirichlet := map[int32]float64{}
	for ci, cell := range mesh.Cells {
		if mesh.Labels[ci] == 6 {
			for _, v := range cell {
				dirichlet[v] = 1
			}
		}
	}
	exterior, bounds := mesh.ExteriorVertices()
	for _, v := range exterior {
		if _, source := dirichlet[v]; !source && slices.Equal(bounds[v], []pi2m.Label{1}) {
			dirichlet[v] = 0
		}
	}

	system, err := pi2m.FEMAssemble(&pi2m.FEMProblem{
		Mesh:         mesh,
		Conductivity: conductivity,
		Dirichlet:    dirichlet,
	})
	if err != nil {
		panic(err)
	}
	solution, err := system.Solve(1e-10, 0)
	if err != nil {
		panic(err)
	}
	// P1 elements obey the maximum principle exactly only when no
	// dihedral angle is obtuse (the stiffness matrix is then an
	// M-matrix). The radius-edge bound admits obtuse angles, so the
	// field may stray outside [0,1] by a discretization-sized amount
	// (about 1e-3 here): check the bound with that slack.
	const slack = 1e-2
	lo, hi := slices.Min(solution.U), slices.Max(solution.U)
	fmt.Println("within [0,1]:", lo >= -slack && hi <= 1+slack)
	// Output:
	// within [0,1]: true
}
