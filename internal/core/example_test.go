package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
)

// ExampleRun meshes a small synthetic sphere with defaults.
func ExampleRun() {
	image := img.SpherePhantom(24)
	result, err := core.Run(core.Config{
		Image:   image,
		Workers: 1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("non-empty mesh:", result.Elements() > 0)
	fmt.Println("all rules accounted:", result.Stats.Inserts+result.Stats.Removals > 0)
	// Output:
	// non-empty mesh: true
	// all rules accounted: true
}

// ExampleConfig_sizeFunction shows rule R5 driven by a custom size
// function: a focus ball meshed finer than the rest.
func ExampleConfig_sizeFunction() {
	image := img.SpherePhantom(32)
	center := geom.Vec3{X: 16, Y: 16, Z: 16}
	coarse, _ := core.Run(core.Config{Image: image, Workers: 1})
	fine, _ := core.Run(core.Config{
		Image:   image,
		Workers: 1,
		SizeFunc: func(p geom.Vec3) float64 {
			if p.Dist(center) < 6 {
				return 2
			}
			return 1e18
		},
	})
	fmt.Println("size function densifies:", fine.Elements() > coarse.Elements())
	// Output:
	// size function densifies: true
}
