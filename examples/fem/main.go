// FEM: the full pipeline the paper's title promises — Image-to-Mesh
// conversion *for finite element simulation*. A multi-tissue abdominal
// phantom is meshed with PI2M and a steady-state bioheat/potential
// problem is solved on the result with per-tissue conductivities: the
// aorta held at a source potential, the body surface grounded.
//
//	go run ./examples/fem
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/img"
)

func main() {
	// 1. Image to mesh.
	image := img.AbdominalPhantom(72, 72, 48)
	result, err := core.Run(core.Config{Image: image})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meshed %d tetrahedra from a %d-tissue image in %v\n",
		result.Elements(), len(image.LabelVolumes()), result.TotalTime.Round(time.Millisecond))

	// 2. The indexed mesh with per-cell tissue labels.
	mesh := result.Snapshot()

	// 3. Per-tissue conductivity (arbitrary units): blood conducts
	//    best, bone worst.
	conductivity := map[img.Label]float64{
		1: 0.2, // body / soft tissue
		2: 0.5, // liver
		3: 0.4, // kidneys
		4: 0.4,
		5: 0.02, // spine (bone)
		6: 0.7,  // aorta (blood)
	}
	perCell := make([]float64, len(mesh.Cells))
	for i, l := range mesh.Labels {
		perCell[i] = conductivity[l]
	}

	// 4. Boundary conditions: the aorta's vertices at potential 1, the
	//    outer body surface at 0: exterior vertices incident only to
	//    body-labeled (1) cells.
	touches := make(map[int32]map[img.Label]bool)
	for ci, cell := range mesh.Cells {
		for _, v := range cell {
			if touches[v] == nil {
				touches[v] = map[img.Label]bool{}
			}
			touches[v][mesh.Labels[ci]] = true
		}
	}
	exterior, _ := mesh.ExteriorVertices()
	dirichlet := map[int32]float64{}
	aortaVerts := 0
	for v, labels := range touches {
		if labels[6] {
			dirichlet[v] = 1 // on or inside the aorta
			aortaVerts++
		}
	}
	for _, v := range exterior {
		if labels := touches[v]; len(labels) == 1 && labels[1] {
			dirichlet[v] = 0 // outer body surface
		}
	}
	fmt.Printf("boundary conditions: %d constrained vertices (%d at the source)\n",
		len(dirichlet), aortaVerts)

	// 5. Assemble and solve.
	sys, err := fem.Assemble(&fem.Problem{
		Mesh:         mesh,
		Conductivity: perCell,
		Dirichlet:    dirichlet,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	sol, err := sys.Solve(1e-8, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved %d unknowns in %d CG iterations (%v, residual %.1e)\n",
		sys.N, sol.Iterations, time.Since(start).Round(time.Millisecond), sol.Residual)

	// 6. Field summary per tissue: mean potential.
	sum := map[img.Label]float64{}
	cnt := map[img.Label]int{}
	for ci, cell := range mesh.Cells {
		var u float64
		for _, v := range cell {
			u += sol.U[v]
		}
		sum[mesh.Labels[ci]] += u / 4
		cnt[mesh.Labels[ci]]++
	}
	names := map[img.Label]string{1: "body", 2: "liver", 3: "kidney L", 4: "kidney R", 5: "spine", 6: "aorta"}
	fmt.Println("mean potential per tissue:")
	for l := img.Label(1); l <= 6; l++ {
		if cnt[l] == 0 {
			continue
		}
		fmt.Printf("  %-10s %.3f\n", names[l], sum[l]/float64(cnt[l]))
	}

	// Sanity: the discrete maximum principle — all values in [0, 1].
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, u := range sol.U {
		lo = math.Min(lo, u)
		hi = math.Max(hi, u)
	}
	fmt.Printf("potential range [%.3f, %.3f] (maximum principle: within [0,1])\n", lo, hi)
}
