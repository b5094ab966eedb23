// Package render rasterizes cross-sections of tetrahedral meshes into
// PNG images — a self-contained way to look at the output meshes the
// paper shows in Figures 7-9 without an external viewer. Pixels are
// colored by tissue label; element edges crossing the section plane
// are darkened so the triangulation structure is visible.
package render

import (
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/geom"
)

// palette assigns stable distinguishable colors to tissue labels
// (label 0 / outside stays white).
var palette = []color.RGBA{
	{255, 255, 255, 255}, // background
	{239, 204, 164, 255}, // 1: soft tissue
	{170, 68, 57, 255},   // 2: liver-ish red
	{126, 160, 83, 255},  // 3: green
	{94, 129, 181, 255},  // 4: blue
	{222, 222, 222, 255}, // 5: bone
	{205, 92, 158, 255},  // 6: vessel
	{240, 180, 60, 255},  // 7
	{120, 120, 200, 255}, // 8
}

// Options controls the rasterization.
type Options struct {
	// Z is the world-space height of the section plane.
	Z float64
	// PixelsPerUnit scales the image (default 8).
	PixelsPerUnit float64
	// Edges draws element wireframes on the section (default true via
	// NoEdges=false).
	NoEdges bool
}

// Section renders the z = opts.Z cross-section of the mesh.
func Section(m *core.MeshSnapshot, opts Options) *image.RGBA {
	if opts.PixelsPerUnit <= 0 {
		opts.PixelsPerUnit = 8
	}
	lo := m.Verts[0]
	hi := m.Verts[0]
	for _, p := range m.Verts {
		lo = lo.Min(p)
		hi = hi.Max(p)
	}
	w := int(math.Ceil((hi.X-lo.X)*opts.PixelsPerUnit)) + 1
	h := int(math.Ceil((hi.Y-lo.Y)*opts.PixelsPerUnit)) + 1
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := range img.Pix {
		img.Pix[i] = 255
	}

	for ci, cell := range m.Cells {
		var pos [4]geom.Vec3
		zmin, zmax := math.Inf(1), math.Inf(-1)
		for i, v := range cell {
			pos[i] = m.Verts[v]
			zmin = math.Min(zmin, pos[i].Z)
			zmax = math.Max(zmax, pos[i].Z)
		}
		if opts.Z < zmin || opts.Z > zmax {
			continue
		}
		label := 1
		if len(m.Labels) > 0 {
			label = int(m.Labels[ci])
		}
		fill := palette[label%len(palette)]

		// Rasterize the cell's bounding rectangle, testing containment
		// of each pixel center in the tetrahedron at height Z.
		xmin, xmax := math.Inf(1), math.Inf(-1)
		ymin, ymax := math.Inf(1), math.Inf(-1)
		for _, p := range pos {
			xmin = math.Min(xmin, p.X)
			xmax = math.Max(xmax, p.X)
			ymin = math.Min(ymin, p.Y)
			ymax = math.Max(ymax, p.Y)
		}
		px0 := int((xmin - lo.X) * opts.PixelsPerUnit)
		px1 := int((xmax-lo.X)*opts.PixelsPerUnit) + 1
		py0 := int((ymin - lo.Y) * opts.PixelsPerUnit)
		py1 := int((ymax-lo.Y)*opts.PixelsPerUnit) + 1
		for py := max(py0, 0); py <= min(py1, h-1); py++ {
			for px := max(px0, 0); px <= min(px1, w-1); px++ {
				p := geom.Vec3{
					X: lo.X + float64(px)/opts.PixelsPerUnit,
					Y: lo.Y + float64(py)/opts.PixelsPerUnit,
					Z: opts.Z,
				}
				in, nearFace := insideTetra(pos, p)
				if !in {
					continue
				}
				c := fill
				if !opts.NoEdges && nearFace {
					c = color.RGBA{
						R: uint8(int(fill.R) * 55 / 100),
						G: uint8(int(fill.G) * 55 / 100),
						B: uint8(int(fill.B) * 55 / 100),
						A: 255,
					}
				}
				// Flip y so the image is oriented like the phantom
				// slices (y up).
				img.SetRGBA(px, h-1-py, c)
			}
		}
	}
	return img
}

// insideTetra reports whether p lies inside the tetrahedron, and
// whether it lies close to one of its faces (for wireframe shading).
// Uses signed volumes; near-degenerate cells simply render without
// edges.
func insideTetra(pos [4]geom.Vec3, p geom.Vec3) (inside, nearFace bool) {
	vol := geom.TetraVolume(pos[0], pos[1], pos[2], pos[3])
	if vol == 0 {
		return false, false
	}
	w := [4]float64{
		geom.TetraVolume(p, pos[1], pos[2], pos[3]) / vol,
		geom.TetraVolume(pos[0], p, pos[2], pos[3]) / vol,
		geom.TetraVolume(pos[0], pos[1], p, pos[3]) / vol,
		geom.TetraVolume(pos[0], pos[1], pos[2], p) / vol,
	}
	minW := math.Inf(1)
	for _, x := range w {
		if x < -1e-9 {
			return false, false
		}
		minW = math.Min(minW, x)
	}
	return true, minW < 0.06
}

// WritePNG renders a section and encodes it.
func WritePNG(w io.Writer, m *core.MeshSnapshot, opts Options) error {
	return png.Encode(w, Section(m, opts))
}

// WritePNGFile renders a section to a file.
func WritePNGFile(path string, m *core.MeshSnapshot, opts Options) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WritePNG(f, m, opts); err != nil {
		return err
	}
	return f.Sync()
}
