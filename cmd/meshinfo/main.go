// Command meshinfo inspects a tetrahedral VTK mesh produced by pi2m
// (or any legacy-ASCII tetrahedral VTK): element counts, per-tissue
// breakdown, quality statistics with histograms, and the boundary
// surface's topology.
//
//	meshinfo mesh.vtk
//	meshinfo -hist mesh.vtk
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"math"
	"os"
	"slices"

	pi2m "repro"
	"repro/internal/geom"
	"repro/internal/quality"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meshinfo: ")
	hist := flag.Bool("hist", false, "print quality histograms")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: meshinfo [-hist] mesh.vtk")
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	m, err := pi2m.ReadVTK(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d vertices, %d tetrahedra\n", flag.Arg(0), len(m.Verts), len(m.Cells))

	if len(m.Labels) > 0 {
		perLabel := map[pi2m.Label]int{}
		for _, l := range m.Labels {
			perLabel[l]++
		}
		labels := slices.Sorted(maps.Keys(perLabel))
		fmt.Println("tissues:")
		for _, l := range labels {
			fmt.Printf("  label %d: %d cells\n", l, perLabel[l])
		}
	}

	// Quality sweep.
	var (
		worstRatio        float64
		minDih, maxDih    = math.Inf(1), math.Inf(-1)
		volume, minVol    = 0.0, math.Inf(1)
		dihHist           = quality.NewHistogram(0, 180, 18)
		ratioHist         = quality.NewHistogram(0, 3, 15)
		inverted, degener int
	)
	pos := func(i int32) geom.Vec3 { return m.Verts[i] }
	for _, c := range m.Cells {
		a, b, cc, d := pos(c[0]), pos(c[1]), pos(c[2]), pos(c[3])
		v := geom.TetraVolume(a, b, cc, d)
		volume += v
		if v < minVol {
			minVol = v
		}
		if v < 0 {
			inverted++
		}
		r := geom.RadiusEdgeRatio(a, b, cc, d)
		if math.IsInf(r, 1) {
			degener++
			continue
		}
		ratioHist.Add(r)
		if r > worstRatio {
			worstRatio = r
		}
		lo, hi := geom.MinMaxDihedral(a, b, cc, d)
		dihHist.Add(lo)
		dihHist.Add(hi)
		if lo < minDih {
			minDih = lo
		}
		if hi > maxDih {
			maxDih = hi
		}
	}
	fmt.Printf("volume: %.6g (min cell %.3g, %d inverted, %d degenerate)\n",
		volume, minVol, inverted, degener)
	fmt.Printf("quality: max radius-edge %.3f, dihedral range (%.2f°, %.2f°)\n",
		worstRatio, minDih, maxDih)

	// Exterior surface topology: the boundary of the mesh with its
	// tissue interfaces ignored, i.e. the faces without a neighbor.
	exterior := &pi2m.MeshSnapshot{Verts: m.Verts, Cells: m.Cells}
	topo := pi2m.SurfaceTopology(exterior.BoundaryTriangles())
	fmt.Printf("boundary: %s\n", topo)

	if *hist {
		fmt.Println("\nradius-edge ratio distribution:")
		fmt.Print(ratioHist)
		fmt.Println("\nextreme dihedral angle distribution:")
		fmt.Print(dihHist)
	}
}
