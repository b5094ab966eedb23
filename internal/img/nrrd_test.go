package img

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestNRRDRoundtrip(t *testing.T) {
	im := AbdominalPhantom(24, 20, 16)
	var buf bytes.Buffer
	if err := WriteNRRD(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNRRD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NX != im.NX || got.NY != im.NY || got.NZ != im.NZ {
		t.Fatalf("dims %dx%dx%d", got.NX, got.NY, got.NZ)
	}
	if got.Spacing != im.Spacing {
		t.Fatalf("spacing %v", got.Spacing)
	}
	for k := 0; k < im.NZ; k++ {
		for j := 0; j < im.NY; j++ {
			for i := 0; i < im.NX; i++ {
				if got.At(i, j, k) != im.At(i, j, k) {
					t.Fatalf("voxel (%d,%d,%d) differs", i, j, k)
				}
			}
		}
	}
}

func TestNRRDFileRoundtrip(t *testing.T) {
	im := SpherePhantom(16)
	path := t.TempDir() + "/sphere.nrrd"
	if err := WriteNRRDFile(path, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNRRDFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVoxels() != im.NumVoxels() {
		t.Fatal("voxel count mismatch")
	}
}

func TestNRRDAnisotropicSpacing(t *testing.T) {
	im := New(4, 5, 6, geom.Vec3{X: 0.96, Y: 0.96, Z: 2.4})
	im.Set(2, 2, 3, 7)
	var buf bytes.Buffer
	if err := WriteNRRD(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNRRD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spacing != im.Spacing {
		t.Fatalf("spacing %v", got.Spacing)
	}
	if got.At(2, 2, 3) != 7 {
		t.Fatal("voxel content lost")
	}
}

func TestNRRDGzipEncoding(t *testing.T) {
	im := TorusPhantom(16)
	// Hand-build a gzip-encoded NRRD.
	var data bytes.Buffer
	gz := gzip.NewWriter(&data)
	gz.Write(labelBytes(im))
	gz.Close()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "NRRD0004\ntype: uint8\ndimension: 3\nsizes: %d %d %d\nspacings: 1 1 1\nencoding: gzip\n\n",
		im.NX, im.NY, im.NZ)
	buf.Write(data.Bytes())

	got, err := ReadNRRD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(8, 8, 8) != im.At(8, 8, 8) || got.NumVoxels() != im.NumVoxels() {
		t.Fatal("gzip roundtrip mismatch")
	}
}

func TestNRRDHeaderVariants(t *testing.T) {
	// Comments, uchar alias, spacing singular.
	body := make([]byte, 8)
	body[3] = 2
	var buf bytes.Buffer
	buf.WriteString("NRRD0001\n# a comment\ntype: uchar\ndimension: 3\nsizes: 2 2 2\nspacing: 1 2 3\nencoding: raw\n\n")
	buf.Write(body)
	got, err := ReadNRRD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spacing != (geom.Vec3{X: 1, Y: 2, Z: 3}) {
		t.Fatalf("spacing %v", got.Spacing)
	}
	if got.At(1, 1, 0) != 2 {
		t.Fatal("data order wrong")
	}
}

func TestNRRDErrors(t *testing.T) {
	cases := map[string]string{
		"bad magic":     "NOPE\n\n",
		"bad type":      "NRRD0004\ntype: float\ndimension: 3\nsizes: 1 1 1\nencoding: raw\n\n",
		"bad dimension": "NRRD0004\ntype: uint8\ndimension: 2\nsizes: 4 4\nencoding: raw\n\n",
		"bad encoding":  "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 1 1 1\nencoding: hex\n\n",
		"detached":      "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 1 1 1\nencoding: raw\ndata file: x.raw\n\n",
		"zero spacing":  "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 1 1 1\nspacings: 0 1 1\nencoding: raw\n\n",
		"short data":    "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 4 4 4\nencoding: raw\n\nxx",
	}
	for name, input := range cases {
		if _, err := ReadNRRD(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNRRDHostileInputs covers the resource-exhaustion and corruption
// defenses: unbounded header lines, oversized headers, truncated or
// over-long gzip payloads, and absurd voxel counts must all fail with
// an error instead of allocating, hanging, or panicking.
func TestNRRDHostileInputs(t *testing.T) {
	longLine := "NRRD0004\ntype: uint8\n# " + strings.Repeat("x", maxHeaderLine+1024) + "\n"
	var bh strings.Builder
	bh.WriteString("NRRD0004\n")
	for bh.Len() <= maxHeaderBytes {
		bh.WriteString("# padding comment line\n")
	}
	bigHeader := bh.String()
	unterminated := "NRRD0004\ntype: uint8\ndimension: 3" // EOF before separator

	// Gzip payload that decodes to more bytes than the header declares.
	var overlong bytes.Buffer
	gz := gzip.NewWriter(&overlong)
	gz.Write(make([]byte, 8<<10))
	gz.Close()
	overGzip := "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 2 2 2\nencoding: gzip\n\n" + overlong.String()

	// Gzip stream cut mid-payload.
	var full bytes.Buffer
	gz = gzip.NewWriter(&full)
	gz.Write(make([]byte, 64))
	gz.Close()
	truncGzip := "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 4 4 4\nencoding: gzip\n\n" +
		string(full.Bytes()[:full.Len()/2])

	cases := map[string]string{
		"oversized header line": longLine,
		"oversized header":      bigHeader,
		"unterminated header":   unterminated,
		"huge voxel count":      "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 100000 100000 100000\nencoding: raw\n\n",
		"overflowing sizes":     "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 2000000000 2000000000 2000000000\nencoding: raw\n\n",
		"gzip decodes too much": overGzip,
		"gzip truncated":        truncGzip,
		"gzip garbage":          "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 2 2 2\nencoding: gzip\n\nnot gzip at all",
		"malformed field":       "NRRD0004\nno colon here\n\n",
	}
	for name, input := range cases {
		if _, err := ReadNRRD(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestNRRDHeaderLineCapAllowsLegitimate checks the caps do not reject
// ordinary long-ish but legal header content.
func TestNRRDHeaderLineCapAllowsLegitimate(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("NRRD0004\n# " + strings.Repeat("y", 8<<10) + "\n")
	buf.WriteString("type: uint8\ndimension: 3\nsizes: 2 2 2\nspacings: 1 1 1\nencoding: raw\n\n")
	buf.Write(make([]byte, 8))
	if _, err := ReadNRRD(&buf); err != nil {
		t.Fatalf("legitimate 8KB comment rejected: %v", err)
	}
}

// TestReadNRRDAllocatesOneBytePerVoxel: a decode holds the voxel block
// once — in the image's label slice — whether it is stored raw or
// gzipped, so a knee-96 decode allocates little beyond one byte per
// voxel.
func TestReadNRRDAllocatesOneBytePerVoxel(t *testing.T) {
	im := KneePhantom(96, 96, 96)
	var raw bytes.Buffer
	if err := WriteNRRD(&raw, im); err != nil {
		t.Fatal(err)
	}
	var gzipped bytes.Buffer
	fmt.Fprintf(&gzipped, "NRRD0004\ntype: uint8\ndimension: 3\nsizes: %d %d %d\nspacings: 1 1 1\nencoding: gzip\n\n",
		im.NX, im.NY, im.NZ)
	gz := gzip.NewWriter(&gzipped)
	gz.Write(labelBytes(im))
	gz.Close()

	for _, enc := range []struct {
		name string
		file []byte
	}{{"raw", raw.Bytes()}, {"gzip", gzipped.Bytes()}} {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ReadNRRD(bytes.NewReader(enc.file)); err != nil {
					b.Fatal(err)
				}
			}
		})
		perVoxel := float64(res.AllocedBytesPerOp()) / float64(im.NumVoxels())
		t.Logf("%s: %.3f B/voxel", enc.name, perVoxel)
		if perVoxel > 1.05 {
			t.Errorf("%s decode allocates %.3f B/voxel, want at most 1.05", enc.name, perVoxel)
		}
		// A decode after many (on a recycled gzip decoder) is still exact.
		got, err := ReadNRRD(bytes.NewReader(enc.file))
		if err != nil || !bytes.Equal(labelBytes(got), labelBytes(im)) {
			t.Errorf("%s: a repeated decode differs from the image (err %v)", enc.name, err)
		}
	}
}
