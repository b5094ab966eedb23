// Package pi2m is the public API of this repository: a parallel
// Image-to-Mesh conversion library reproducing Foteinos &
// Chrisochoides, "High Quality Real-Time Image-to-Mesh Conversion for
// Finite Element Simulations" (SC 2012).
//
// The minimal flow:
//
//	image, _ := pi2m.ReadNRRDFile("segmentation.nrrd") // or a phantom
//	session, _ := pi2m.NewSession(pi2m.WithThreads(4))
//	defer session.Close()
//	result, err := session.Run(ctx, image)
//	mesh := result.Snapshot() // quality, boundary, VTK/OFF, FEM all read it
//	pi2m.WriteVTKSnapshot(w, mesh)
//
// A Session retains the pipeline's expensive allocations, so calling
// Run repeatedly (time series, parameter sweeps, interactive use)
// reuses memory instead of reallocating — the warm path of the
// paper's real-time story. A Session is the facade's one entry point.
//
// The names here alias the implementation packages under internal/,
// which carry the full documentation: internal/core (the refiner),
// internal/img (images), internal/quality (metrics), internal/meshio
// (export), internal/sizing (size functions), internal/fem (a P1
// Poisson solver to consume the meshes).
package pi2m

import (
	"io"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/meshio"
	"repro/internal/quality"
	"repro/internal/sizing"
)

// Core types.
type (
	// Config parameterizes a run; see internal/core.Config.
	Config = core.Config
	// Result is a finished run; Result.Final lists the output cells.
	Result = core.Result
	// RunStats carries operation and overhead counters.
	RunStats = core.RunStats
	// SizeFunc is the R5 size function type.
	SizeFunc = core.SizeFunc
	// Status classifies how a run ended (completed/aborted).
	Status = core.Status
	// MeshSnapshot is the indexed mesh every consumer reads — quality,
	// I/O, FEM — a lease-independent copy of a run's final mesh; take
	// one with Result.Snapshot while the Result is still valid.
	MeshSnapshot = core.MeshSnapshot
	// RunSummary is the compact digest of a run carried by snapshots
	// and serving statistics.
	RunSummary = core.RunSummary

	// Image is a segmented multi-label voxel image.
	Image = img.Image
	// Label identifies a tissue (0 = background).
	Label = img.Label

	// Vec3 is a point in R^3.
	Vec3 = geom.Vec3

	// Mesh is the shared Delaunay triangulation a Result references.
	Mesh = delaunay.Mesh
	// CellHandle addresses one tetrahedron of a Mesh.
	CellHandle = arena.Handle

	// QualityStats summarizes element quality (Table 6 columns).
	QualityStats = quality.Stats
	// Triangle is a boundary triangle.
	Triangle = quality.Triangle
	// SurfaceTopologyInfo reports Euler characteristics and
	// watertightness of a boundary triangulation.
	SurfaceTopologyInfo = quality.Topology

	// FEMProblem is a Poisson problem -∇·(k∇u) = f on a MeshSnapshot with
	// Dirichlet constraints — the simulation the paper's meshes exist
	// for. See internal/fem.
	FEMProblem = fem.Problem
	// FEMSystem is an assembled, constraint-eliminated linear system.
	FEMSystem = fem.System
	// FEMSolution is a solved field with solver diagnostics.
	FEMSolution = fem.Solution
	// FEMSolveOptions parameterizes FEMSystem.SolveCtx (tolerance,
	// iteration cap, progress hook for supervision).
	FEMSolveOptions = fem.SolveOptions
)

// Statuses of a Result (see internal/core): an aborted run is partial,
// with Result.Err() wrapping the first cause.
const (
	StatusCompleted = core.StatusCompleted
	StatusAborted   = core.StatusAborted
)

// Phantoms: synthetic stand-ins for segmented atlases (paper Table 3).
var (
	SpherePhantom    = img.SpherePhantom
	TorusPhantom     = img.TorusPhantom
	AbdominalPhantom = img.AbdominalPhantom
	KneePhantom      = img.KneePhantom
	HeadNeckPhantom  = img.HeadNeckPhantom
	VesselPhantom    = img.VesselPhantom
)

// NewImage creates an empty segmented image.
func NewImage(nx, ny, nz int, spacing Vec3) *Image { return img.New(nx, ny, nz, spacing) }

// ReadNRRD loads a uint8 label image in NRRD format from r.
func ReadNRRD(r io.Reader) (*Image, error) { return img.ReadNRRD(r) }

// WriteNRRD saves a label image in NRRD format to w.
func WriteNRRD(w io.Writer, im *Image) error { return img.WriteNRRD(w, im) }

// ReadNRRDFile loads a uint8 label image in NRRD format.
func ReadNRRDFile(path string) (*Image, error) { return img.ReadNRRDFile(path) }

// WriteNRRDFile saves a label image in NRRD format.
func WriteNRRDFile(path string, im *Image) error { return img.WriteNRRDFile(path, im) }

// SurfaceTopology verifies the combinatorial topology of a boundary
// triangulation (Theorem 1's guarantee, checkable).
func SurfaceTopology(tris []Triangle) SurfaceTopologyInfo {
	return quality.SurfaceTopology(tris)
}

// WriteVTKSnapshot exports a MeshSnapshot as a legacy VTK
// unstructured grid, tissue labels as cell data, to w.
func WriteVTKSnapshot(w io.Writer, s *MeshSnapshot) error {
	return meshio.WriteVTKSnapshot(w, s)
}

// WriteOFFSnapshot exports a MeshSnapshot's boundary triangulation as
// an OFF surface to w.
func WriteOFFSnapshot(w io.Writer, s *MeshSnapshot) error {
	return meshio.WriteOFFSnapshot(w, s)
}

// WriteOFF exports boundary triangles as an OFF surface to w.
func WriteOFF(w io.Writer, tris []Triangle) error {
	return meshio.WriteOFF(w, tris)
}

// WriteOFFFile exports boundary triangles as an OFF surface.
func WriteOFFFile(path string, tris []Triangle) error {
	return meshio.WriteOFFFile(path, tris)
}

// ReadVTK parses a legacy-VTK tetrahedral mesh (as written by
// WriteVTKSnapshot or WriteVTKSnapshotField) from r into a
// MeshSnapshot.
func ReadVTK(r io.Reader) (*MeshSnapshot, error) { return meshio.ReadVTK(r) }

// ReadVTKFile parses a legacy-VTK tetrahedral mesh from a file.
func ReadVTKFile(path string) (*MeshSnapshot, error) { return meshio.ReadVTKFile(path) }

// FEMAssemble builds the stiffness matrix and load vector of a
// Poisson problem; solve the returned system with Solve or SolveCtx.
func FEMAssemble(p *FEMProblem) (*FEMSystem, error) { return fem.Assemble(p) }

// ConductivityFromLabels expands per-tissue-label conductivities into
// the per-cell coefficient array FEMProblem.Conductivity takes.
func ConductivityFromLabels(m *MeshSnapshot, byLabel map[int]float64, def float64) ([]float64, error) {
	return fem.ConductivityFromLabels(m, byLabel, def)
}

// WriteVTKSnapshotField exports a MeshSnapshot with a solved per-vertex
// scalar field attached as VTK POINT_DATA — the /v1/simulate response
// encoding, usable directly by ParaView.
func WriteVTKSnapshotField(w io.Writer, s *MeshSnapshot, name string, u []float64) error {
	return meshio.WriteVTKSnapshotField(w, s, name, u)
}

// Size-function constructors (rule R5); see internal/sizing.
var (
	UniformSize     = sizing.Uniform
	BallSize        = sizing.Ball
	PerLabelSize    = sizing.PerLabel
	NearSurfaceSize = sizing.NearSurface
	GradedSize      = sizing.Graded
	MinSize         = sizing.Min
)
