package core

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/delaunay"
	"repro/internal/img"
)

// TestPoorListHoldsHandles pins the refiner's per-cell memory: a queued
// cell is a bare handle, a cell's refiner word is 32 bits, and the
// poor-element lists of a warm two-worker session at the
// lib_mesh scale stay a few MiB.
func TestPoorListHoldsHandles(t *testing.T) {
	var th thread
	if got := unsafe.Sizeof(th.pel[0]); got != 4 {
		t.Errorf("a PEL item is %d bytes, want 4", got)
	}
	if got := unsafe.Sizeof(delaunay.Cell{}); got != 72 {
		t.Errorf("delaunay.Cell is %d bytes, want 72", got)
	}
	if testing.Short() {
		t.Skip("three two-worker scale-96 runs")
	}

	im := img.KneePhantom(96, 96, 96)
	s, err := NewSession(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ { // one cold run, then two warm ones
		res, err := s.Run(context.Background(), im)
		if err != nil || res.Status != StatusCompleted {
			t.Fatalf("run %d: %v, %v", i, res.Status, err)
		}
		if res.Stats.DanglingPoorCount != 0 {
			t.Fatalf("run %d: dangling poor count %d", i, res.Stats.DanglingPoorCount)
		}
	}

	var items int
	for _, th := range s.threads {
		items += cap(th.pel) + cap(th.scratch) + cap(th.inbox.items)
	}
	bytes := items * int(unsafe.Sizeof(th.pel[0]))
	t.Logf("PEL, scratch and inbox capacity: %d items, %.2f MiB", items, float64(bytes)/(1<<20))
	if bytes >= 4<<20 {
		t.Errorf("poor-element lists hold %.2f MiB after two warm runs, want < 4 MiB", float64(bytes)/(1<<20))
	}
}
