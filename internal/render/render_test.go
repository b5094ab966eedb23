package render

import (
	"bytes"
	"image/color"
	"image/png"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
)

func singleTetra(label img.Label) *core.MeshSnapshot {
	m := &core.MeshSnapshot{
		Verts: []geom.Vec3{
			{X: 0, Y: 0, Z: 0}, {X: 4, Y: 0, Z: 0}, {X: 0, Y: 4, Z: 0}, {X: 0, Y: 0, Z: 4},
		},
		Cells: [][4]int32{{0, 1, 2, 3}},
	}
	if label > 0 {
		m.Labels = []img.Label{label}
	}
	return m
}

func TestSectionHitsInterior(t *testing.T) {
	m := singleTetra(2)
	im := Section(m, Options{Z: 0.5, PixelsPerUnit: 16})
	if im.Bounds().Dx() < 32 || im.Bounds().Dy() < 32 {
		t.Fatalf("image too small: %v", im.Bounds())
	}
	// A point well inside the cut triangle must carry label 2's color.
	want := palette[2]
	found := false
	b := im.Bounds()
	for y := b.Min.Y; y < b.Max.Y && !found; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := im.RGBAAt(x, y)
			if c == want {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("tissue color not present in section")
	}
	// Corners stay background white.
	if im.RGBAAt(b.Max.X-1, 0) != (color.RGBA{255, 255, 255, 255}) {
		t.Fatal("background not white")
	}
}

func TestSectionAboveMeshEmpty(t *testing.T) {
	m := singleTetra(1)
	im := Section(m, Options{Z: 10, PixelsPerUnit: 8})
	b := im.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			if im.RGBAAt(x, y) != (color.RGBA{255, 255, 255, 255}) {
				t.Fatal("non-background pixel above the mesh")
			}
		}
	}
}

func TestWritePNG(t *testing.T) {
	image := img.AbdominalPhantom(40, 40, 28)
	res, err := core.Run(core.Config{Image: image, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, res.Snapshot(), Options{Z: 14}); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() == 0 {
		t.Fatal("empty png")
	}
	// Multiple tissue colors should appear in the section.
	colors := map[color.Color]bool{}
	b := decoded.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y += 2 {
		for x := b.Min.X; x < b.Max.X; x += 2 {
			colors[decoded.At(x, y)] = true
		}
	}
	if len(colors) < 3 {
		t.Fatalf("only %d distinct colors in a multi-tissue section", len(colors))
	}
}

func TestWritePNGFile(t *testing.T) {
	m := singleTetra(1)
	path := t.TempDir() + "/s.png"
	if err := WritePNGFile(path, m, Options{Z: 1}); err != nil {
		t.Fatal(err)
	}
}
