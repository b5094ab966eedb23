package baseline

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/img"
)

// cellSetSHA hashes a baseline's output as a set: each final cell is
// its four vertex positions in lexicographic order, and the cells are
// sorted the same way, so neither cell handles nor the order of Final
// enter the hash — only which tetrahedra the mesher produced.
func cellSetSHA(m *delaunay.Mesh, final []arena.Handle) string {
	cmpVec := func(a, b geom.Vec3) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.Z, b.Z))
	}
	cells := make([][4]geom.Vec3, len(final))
	for i, h := range final {
		c := m.Cells.At(h)
		for j, vh := range c.V {
			cells[i][j] = m.Pos(vh)
		}
		slices.SortFunc(cells[i][:], cmpVec)
	}
	slices.SortFunc(cells, func(a, b [4]geom.Vec3) int {
		for j := range a {
			if c := cmpVec(a[j], b[j]); c != 0 {
				return c
			}
		}
		return 0
	})
	h := sha256.New()
	var buf [8]byte
	for _, c := range cells {
		for _, p := range c {
			for _, x := range [3]float64{p.X, p.Y, p.Z} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBaselineCellSetsPinned pins the tetrahedra both baselines produce
// on the three atlas phantoms at scale 48. PLCMesh is fed the boundary
// of a single-worker PI2M run, which the core goldens pin byte for
// byte. A change to how the kernel stores or recycles cells may reorder
// Final, but must leave these sets alone. The values were recorded while
// the cell arena was still append-only within a run.
func TestBaselineCellSetsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes were recorded on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	pins := []struct {
		name               string
		image              func() *img.Image
		seqElems, plcElems int
		seq, plc           string
	}{
		{"knee", func() *img.Image { return img.KneePhantom(48, 48, 48) }, 7027, 4254,
			"582c4ccc6fb1c7d68e3b2661ab13eeeee345eadef302367cfef3a04778ebe2fa",
			"fccaf0cb50912c49429314f8695cf12fead7ec872923b378e75f6ed730538911"},
		{"abdominal", func() *img.Image { return img.AbdominalPhantom(48, 48, 32) }, 4606, 2855,
			"9b37d1cf20f7ddec49a9b74cd27cd83187ad67d1edf40bbe96f24cc498dbd0e1",
			"39c6b3c29b868f4797b5346da1ae133323d72ee2c4930b51937989eaee799392"},
		{"headneck", func() *img.Image { return img.HeadNeckPhantom(48, 48, 48) }, 6420, 3614,
			"fa8b6600af5083facde5433e165ab4b5159a682f79c467c4784fc5d5ad23ecce",
			"87908811d7bf30516cf0de067e09b677026949acfbd62f25bf0bf11c7e37f356"},
	}
	for _, p := range pins {
		im := p.image()
		seq, err := SeqMesh(im, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := cellSetSHA(seq.Mesh, seq.Final); seq.Elements() != p.seqElems || got != p.seq {
			t.Errorf("%s SeqMesh: %d elements, cell-set sha256 %s; pinned %d, %s", p.name, seq.Elements(), got, p.seqElems, p.seq)
		}

		s, err := core.NewSession(core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := s.Run(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		tris := par.Snapshot().BoundaryTriangles()
		s.Close()
		plc, err := PLCMesh(im, tris, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := cellSetSHA(plc.Mesh, plc.Final); plc.Elements() != p.plcElems || got != p.plc {
			t.Errorf("%s PLCMesh: %d elements, cell-set sha256 %s; pinned %d, %s", p.name, plc.Elements(), got, p.plcElems, p.plc)
		}
	}
}
