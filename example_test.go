package pi2m_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"time"

	pi2m "repro"
)

// ExampleNewSession shows the context-first session API: build a
// session once, run it on an image, inspect the result.
func ExampleNewSession() {
	session, err := pi2m.NewSession(
		pi2m.WithThreads(1),
		pi2m.WithLivelockTimeout(time.Minute),
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
	session, err := pi2m.NewSession(pi2m.WithThreads(1), pi2m.WithLivelockTimeout(time.Minute))
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

// ExampleRun shows the one-shot convenience wrapper kept for callers
// that mesh a single image.
func ExampleRun() {
	result, err := pi2m.Run(pi2m.Config{
		Image:           pi2m.SpherePhantom(24),
		Workers:         1,
		LivelockTimeout: time.Minute,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("status:", result.Status)
	// Output:
	// status: completed
}

// ExampleWriteVTKSnapshot streams a mesh to any io.Writer — here an
// in-memory buffer — instead of a file path.
func ExampleWriteVTKSnapshot() {
	session, _ := pi2m.NewSession(pi2m.WithThreads(1), pi2m.WithLivelockTimeout(time.Minute))
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
