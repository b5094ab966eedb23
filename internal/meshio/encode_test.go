package meshio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/quality"
)

// The fmt reference: the print sequences the writers were before they
// shared the append core, kept so every writer's bytes stay pinned to
// what fmt's %g and %d produce.

func refVTKGrid(w io.Writer, verts []geom.Vec3, cells [][4]int32, labels []int, tissue bool) {
	fmt.Fprintln(w, "# vtk DataFile Version 3.0")
	fmt.Fprintln(w, "PI2M tetrahedral mesh")
	fmt.Fprintln(w, "ASCII")
	fmt.Fprintln(w, "DATASET UNSTRUCTURED_GRID")
	fmt.Fprintf(w, "POINTS %d double\n", len(verts))
	for _, p := range verts {
		fmt.Fprintf(w, "%g %g %g\n", p.X, p.Y, p.Z)
	}
	fmt.Fprintf(w, "CELLS %d %d\n", len(cells), 5*len(cells))
	for _, c := range cells {
		fmt.Fprintf(w, "4 %d %d %d %d\n", c[0], c[1], c[2], c[3])
	}
	fmt.Fprintf(w, "CELL_TYPES %d\n", len(cells))
	for range cells {
		fmt.Fprintln(w, 10)
	}
	if tissue {
		fmt.Fprintf(w, "CELL_DATA %d\n", len(cells))
		fmt.Fprintln(w, "SCALARS tissue int 1")
		fmt.Fprintln(w, "LOOKUP_TABLE default")
		for _, l := range labels {
			fmt.Fprintln(w, l)
		}
	}
}

func refVTK(w io.Writer, m *delaunay.Mesh, final []arena.Handle, im *img.Image) {
	index := make(map[arena.Handle]int32)
	var verts []geom.Vec3
	cells := make([][4]int32, len(final))
	var labels []int
	for i, h := range final {
		c := m.Cells.At(h)
		for j := 0; j < 4; j++ {
			if _, ok := index[c.V[j]]; !ok {
				index[c.V[j]] = int32(len(verts))
				verts = append(verts, m.Pos(c.V[j]))
			}
			cells[i][j] = index[c.V[j]]
		}
		if im != nil {
			labels = append(labels, int(im.LabelAt(c.CC)))
		}
	}
	refVTKGrid(w, verts, cells, labels, im != nil)
}

func refVTKSnapshot(w io.Writer, s *core.MeshSnapshot) {
	var labels []int
	for _, l := range s.Labels {
		labels = append(labels, int(l))
	}
	refVTKGrid(w, s.Verts, s.Cells, labels, s.Labels != nil)
}

func refVTKSnapshotField(w io.Writer, s *core.MeshSnapshot, name string, u []float64) {
	refVTKSnapshot(w, s)
	fmt.Fprintf(w, "POINT_DATA %d\n", len(s.Verts))
	fmt.Fprintf(w, "SCALARS %s double 1\n", name)
	fmt.Fprintln(w, "LOOKUP_TABLE default")
	for _, v := range u {
		fmt.Fprintf(w, "%g\n", v)
	}
}

func refOFF(w io.Writer, tris []quality.Triangle) {
	type key [3]float64
	index := make(map[key]int)
	var pts []key
	id := func(p geom.Vec3) int {
		k := key{p.X, p.Y, p.Z}
		if i, ok := index[k]; ok {
			return i
		}
		index[k] = len(pts)
		pts = append(pts, k)
		return len(pts) - 1
	}
	faces := make([][3]int, len(tris))
	for i, t := range tris {
		faces[i] = [3]int{id(t.A), id(t.B), id(t.C)}
	}
	fmt.Fprintln(w, "OFF")
	fmt.Fprintf(w, "%d %d 0\n", len(pts), len(faces))
	for _, p := range pts {
		fmt.Fprintf(w, "%g %g %g\n", p[0], p[1], p[2])
	}
	for _, f := range faces {
		fmt.Fprintf(w, "3 %d %d %d\n", f[0], f[1], f[2])
	}
}

// sameBytes runs a writer and its reference and compares the outputs.
func sameBytes(t *testing.T, what string, write func(io.Writer) error, ref func(io.Writer)) {
	t.Helper()
	var got, want bytes.Buffer
	if err := write(&got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ref(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("%s: %d bytes, reference %d; first difference at %d:\n got %q\nwant %q", what,
			got.Len(), want.Len(), i, got.Bytes()[lo:min(got.Len(), i+40)], want.Bytes()[lo:min(want.Len(), i+40)])
	}
}

// adversarial are the values on which a float formatter and fmt's %g
// could part ways: signed zeros, denormals, both sides of the exponent
// switches, the extremes, and the non-finite values a diverged solve
// can put in a field.
var adversarial = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456.789, 1e5, 1e6,
	1e20, 1e21, 1e22, 1e-4, 1e-5, 0.00001234, 5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxInt32, 1 << 53,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// adversarialSnapshot packs those values into vertex positions, with
// cell indices and labels at the edges of their types. The cells are
// not a valid mesh; an encoder does not care.
func adversarialSnapshot() *core.MeshSnapshot {
	s := &core.MeshSnapshot{}
	for i := range adversarial {
		s.Verts = append(s.Verts, geom.Vec3{
			X: adversarial[i],
			Y: adversarial[(i+1)%len(adversarial)],
			Z: adversarial[(i+2)%len(adversarial)],
		})
	}
	s.Cells = [][4]int32{{0, 1, 2, 3}, {math.MaxInt32, 0, math.MaxInt32 - 1, 9}, {10, 99, 100, 999999}}
	s.Labels = []img.Label{0, 255, 7}
	return s
}

// TestEncodersMatchFmtReference pins every writer to the fmt
// reference, on a real W=1 mesh and on the adversarial values, and
// SnapshotOf's vertex compaction to the reference's own walk over the
// kernel mesh.
func TestEncodersMatchFmtReference(t *testing.T) {
	res, im := smallMesh(t)
	real := res.Snapshot()
	field := make([]float64, len(real.Verts))
	for i, p := range real.Verts {
		field[i] = math.Sin(p.X) * p.Y / (p.Z + 0.5)
	}
	adv := adversarialSnapshot() // one vertex per adversarial value: they double as its field
	unlabeled := &core.MeshSnapshot{Verts: adv.Verts, Cells: adv.Cells}
	empty := &core.MeshSnapshot{}
	emptyLabeled := &core.MeshSnapshot{Labels: []img.Label{}}

	sameBytes(t, "SnapshotOf",
		func(w io.Writer) error { return WriteVTKSnapshot(w, core.SnapshotOf(res.Mesh, res.Final, im)) },
		func(w io.Writer) { refVTK(w, res.Mesh, res.Final, im) })
	sameBytes(t, "SnapshotOf, no image",
		func(w io.Writer) error { return WriteVTKSnapshot(w, core.SnapshotOf(res.Mesh, res.Final, nil)) },
		func(w io.Writer) { refVTK(w, res.Mesh, res.Final, nil) })
	sameBytes(t, "SnapshotOf, no cells",
		func(w io.Writer) error { return WriteVTKSnapshot(w, core.SnapshotOf(res.Mesh, nil, im)) },
		func(w io.Writer) { refVTK(w, res.Mesh, nil, im) })

	for name, s := range map[string]*core.MeshSnapshot{
		"real": real, "adversarial": adv, "nil labels": unlabeled, "empty": empty, "empty, labeled": emptyLabeled,
	} {
		sameBytes(t, "WriteVTKSnapshot, "+name,
			func(w io.Writer) error { return WriteVTKSnapshot(w, s) },
			func(w io.Writer) { refVTKSnapshot(w, s) })
	}

	sameBytes(t, "WriteVTKSnapshotField, real",
		func(w io.Writer) error { return WriteVTKSnapshotField(w, real, "u", field) },
		func(w io.Writer) { refVTKSnapshotField(w, real, "u", field) })
	sameBytes(t, "WriteVTKSnapshotField, adversarial",
		func(w io.Writer) error { return WriteVTKSnapshotField(w, adv, "temperature", adversarial) },
		func(w io.Writer) { refVTKSnapshotField(w, adv, "temperature", adversarial) })
	sameBytes(t, "WriteVTKSnapshotField, empty",
		func(w io.Writer) error { return WriteVTKSnapshotField(w, empty, "u", nil) },
		func(w io.Writer) { refVTKSnapshotField(w, empty, "u", nil) })

	// OFF shares a vertex on float equality, so the two zeros are one
	// point and two NaNs never are; the adversarial vertices, three at a
	// time, cover both.
	var tris []quality.Triangle
	for i := 0; i+2 < len(adv.Verts); i++ {
		tris = append(tris, quality.Triangle{A: adv.Verts[i], B: adv.Verts[i+1], C: adv.Verts[i+2]})
	}
	for name, tris := range map[string][]quality.Triangle{
		"real": real.BoundaryTriangles(), "adversarial": tris, "empty": nil,
	} {
		sameBytes(t, "WriteOFF, "+name,
			func(w io.Writer) error { return WriteOFF(w, tris) },
			func(w io.Writer) { refOFF(w, tris) })
	}
	sameBytes(t, "WriteOFFSnapshot",
		func(w io.Writer) error { return WriteOFFSnapshot(w, real) },
		func(w io.Writer) { refOFF(w, real.BoundaryTriangles()) })
}

// countingWriter records how its input arrived.
type countingWriter struct{ writes, bytes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// TestWritersWriteOnce: every writer hands its whole encoding over in
// one Write, and a failed encode writes nothing — what lets a caller
// frame the output by its length.
func TestWritersWriteOnce(t *testing.T) {
	res, _ := smallMesh(t)
	snap := res.Snapshot()
	for name, write := range map[string]func(io.Writer) error{
		"WriteVTKSnapshot":      func(w io.Writer) error { return WriteVTKSnapshot(w, snap) },
		"WriteOFF":              func(w io.Writer) error { return WriteOFF(w, snap.BoundaryTriangles()) },
		"WriteVTKSnapshotField": func(w io.Writer) error { return WriteVTKSnapshotField(w, snap, "u", make([]float64, len(snap.Verts))) },
		"WriteOFFSnapshot":      func(w io.Writer) error { return WriteOFFSnapshot(w, snap) },
	} {
		var cw countingWriter
		if err := write(&cw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cw.writes != 1 || cw.bytes == 0 {
			t.Errorf("%s: %d writes of %d bytes in total, want one", name, cw.writes, cw.bytes)
		}
	}
	var cw countingWriter
	if err := WriteVTKSnapshotField(&cw, snap, "u", make([]float64, 3)); err == nil || cw.writes != 0 {
		t.Errorf("field of the wrong length: err %v after %d writes, want an error and none", err, cw.writes)
	}
}

// FuzzAppendVTKFloat: the float formatting is fmt's %g on every bit
// pattern the fuzzer can find.
func FuzzAppendVTKFloat(f *testing.F) {
	for _, v := range adversarial {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if got, want := string(appendFloat(nil, v)), fmt.Sprintf("%g", v); got != want {
			t.Fatalf("%x: appended %q, fmt prints %q", bits, got, want)
		}
	})
}

// kneeSnapshot is the scale-48 knee phantom's W=1 mesh, the largest
// body the daemon benchmark workloads serve.
func kneeSnapshot(tb testing.TB) *core.MeshSnapshot {
	tb.Helper()
	res, err := core.Run(core.Config{Image: img.KneePhantom(48, 48, 48), Workers: 1, LivelockTimeout: time.Minute})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Snapshot()
}

// TestEncodeDoesNotAllocate: with a buffer that has been through one
// encode, the next costs no allocation — no per-element boxing, no
// growth.
func TestEncodeDoesNotAllocate(t *testing.T) {
	res, _ := smallMesh(t)
	snap := res.Snapshot()
	field := make([]float64, len(snap.Verts))
	buf, err := AppendVTKSnapshotField(nil, snap, "u", field)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		buf = AppendVTKSnapshot(buf[:0], snap)
		buf, _ = AppendVTKSnapshotField(buf[:0], snap, "u", field)
	}); n != 0 {
		t.Errorf("%v allocations per encode into a warm buffer, want 0", n)
	}
}

// BenchmarkEncodeVTK reports the encoder's throughput on the body the
// serve_hot workload is dominated by.
func BenchmarkEncodeVTK(b *testing.B) {
	snap := kneeSnapshot(b)
	buf := AppendVTKSnapshot(nil, snap)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendVTKSnapshot(buf[:0], snap)
	}
}
