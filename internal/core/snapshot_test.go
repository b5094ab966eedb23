package core

import (
	"context"
	"testing"

	"repro/internal/img"
)

// TestSnapshotSurvivesNextRun pins the snapshot lifetime guarantee: a
// MeshSnapshot taken from one run stays bit-for-bit intact after the
// owning session's next Run recycles the mesh arenas underneath the
// original Result. This is the property the serving layer's off-lease
// encoding depends on.
func TestSnapshotSurvivesNextRun(t *testing.T) {
	s, err := NewSession(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := s.Run(context.Background(), img.SpherePhantom(10))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	if snap.Elements() == 0 || snap.Elements() != len(res.Final) {
		t.Fatalf("snapshot has %d cells, run produced %d", snap.Elements(), len(res.Final))
	}
	if len(snap.Labels) != len(snap.Cells) {
		t.Fatalf("snapshot has %d labels for %d cells", len(snap.Labels), len(snap.Cells))
	}
	for _, c := range snap.Cells {
		for _, v := range c {
			if v < 0 || int(v) >= len(snap.Verts) {
				t.Fatalf("cell vertex index %d out of range [0,%d)", v, len(snap.Verts))
			}
		}
	}
	savedVerts := make([][3]float64, len(snap.Verts))
	for i, v := range snap.Verts {
		savedVerts[i] = [3]float64{v.X, v.Y, v.Z}
	}
	savedCells := append([][4]int32(nil), snap.Cells...)
	savedLabels := append([]img.Label(nil), snap.Labels...)

	// Recycle the session's arenas with a different image.
	if _, err := s.Run(context.Background(), img.TorusPhantom(12)); err != nil {
		t.Fatal(err)
	}

	for i, v := range snap.Verts {
		if savedVerts[i] != [3]float64{v.X, v.Y, v.Z} {
			t.Fatal("snapshot vertices mutated by the session's next run")
		}
	}
	for i, c := range snap.Cells {
		if savedCells[i] != c {
			t.Fatal("snapshot cells mutated by the session's next run")
		}
	}
	for i, l := range snap.Labels {
		if savedLabels[i] != l {
			t.Fatal("snapshot labels mutated by the session's next run")
		}
	}
}

// TestSnapshotSizeBytes sanity-checks the metric feed: the estimate
// must scale with the actual payload.
func TestSnapshotSizeBytes(t *testing.T) {
	res, err := Run(Config{Image: img.SpherePhantom(10), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	want := 24*len(snap.Verts) + 16*len(snap.Cells) + len(snap.Labels)
	if got := snap.SizeBytes(); got != want || got <= 0 {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}
