package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/delaunay"
	"repro/internal/faultinject"
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

// TestWarmSessionRetainsLittleHeap bounds what a warm single-worker
// session keeps between runs — its mesh arenas, sparsity grids, EDT
// features and per-thread lists — after meshing the three scale-48
// atlas phantoms twice: the live heap it adds, measured after a
// collection with the session alive. Grids that cost 40 B for every
// cell of the box and 8,192-entry arena chunks kept 7.1 MiB; grids
// that cost a pointer per cell plus their occupied buckets, and
// 1,024-entry chunks, kept 3.2 MiB (the chunks alone 6.6 MiB: the grid
// at this scale is TestGridCostsFollowPoints's to guard); 64 KiB chunk
// tables in place of 512 KiB ones keep 2.35 MiB, so a table grown back
// fails the bound.
func TestWarmSessionRetainsLittleHeap(t *testing.T) {
	images := []*img.Image{
		img.KneePhantom(48, 48, 48),
		img.AbdominalPhantom(48, 48, 32),
		img.HeadNeckPhantom(48, 48, 48),
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	s, err := NewSession(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pass := 0; pass < 2; pass++ {
		for i, im := range images {
			if res, err := s.Run(context.Background(), im); err != nil || res.Status != StatusCompleted {
				t.Fatalf("image %d pass %d: %v, %v", i, pass, res.Status, err)
			}
		}
	}
	kept := heap() - base
	runtime.KeepAlive(s)
	runtime.KeepAlive(images)
	t.Logf("a warm session retains %.2f MiB", float64(kept)/(1<<20))
	if kept > 11<<18 {
		t.Errorf("a warm session retains %.2f MiB of heap, want at most 2.75 MiB", float64(kept)/(1<<20))
	}
}

// TestSingleOwnerArenaTracksLive: a single-worker run owns its mesh, so
// its worker creates cells in the slots its commits killed, and the
// cell arena ends every run at its live size — where an append-only
// arena holds four to five cells for each live one. One warm session
// meshes the three scale-48 atlas phantoms and the knee at 96, twice
// over, so every image runs both on a rebuilt and on a restored
// bootstrap.
func TestSingleOwnerArenaTracksLive(t *testing.T) {
	if testing.Short() {
		t.Skip("eight single-worker runs up to scale 96")
	}
	images := []struct {
		name string
		im   *img.Image
	}{
		{"knee-48", img.KneePhantom(48, 48, 48)},
		{"abdominal-48", img.AbdominalPhantom(48, 48, 32)},
		{"headneck-48", img.HeadNeckPhantom(48, 48, 48)},
		{"knee-96", img.KneePhantom(96, 96, 96)},
	}
	s, err := NewSession(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pass := 0; pass < 2; pass++ {
		for _, im := range images {
			res, err := s.Run(context.Background(), im.im)
			if err != nil || res.Status != StatusCompleted {
				t.Fatalf("%s pass %d: %v, %v", im.name, pass, res.Status, err)
			}
			alloc, live := res.Mesh.NumCellsAllocated(), res.Mesh.NumLiveCells()
			t.Logf("%s pass %d: %d cells allocated, %d live (%.3fx)", im.name, pass, alloc, live, float64(alloc)/float64(live))
			if float64(alloc) > 1.05*float64(live) {
				t.Errorf("%s pass %d: %d cells allocated for %d live (%.2fx), want at most 1.05x",
					im.name, pass, alloc, live, float64(alloc)/float64(live))
			}
		}
	}
}

// TestSharedArenaTracksLive is TestSingleOwnerArenaTracksLive at two
// workers: a shared mesh reuses the slots its commits killed once no
// worker can still hold them (epoch reclamation), so the cell arena
// ends every run within twice its live size — where an append-only
// arena holds four to five cells for each live one. One warm session
// meshes the three scale-48 atlas phantoms and the knee at 96, twice
// over, and every mesh it leaves passes Check. A worker descheduled
// inside its section holds reuse back, so the bound leans on limboCap:
// without it, a loaded two-core host took scale-48 meshes to 2.1x-3.2x
// their live size (with it, at most 1.27x).
//
// Then the same images under each blocking contention manager with
// 2 % of lock acquisitions denied: rolled-back threads park often and
// for long (Section 4.5). A parked thread that still announced an
// epoch keeps every killed cell in limbo while it waits, until the
// other worker fills its limbo and waits in turn for the parked one:
// no operation commits again, and the stall watchdog, set short here,
// aborts the run.
func TestSharedArenaTracksLive(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen two-worker runs up to scale 96")
	}
	images := []struct {
		name string
		im   *img.Image
	}{
		{"knee-48", img.KneePhantom(48, 48, 48)},
		{"abdominal-48", img.AbdominalPhantom(48, 48, 32)},
		{"headneck-48", img.HeadNeckPhantom(48, 48, 48)},
		{"knee-96", img.KneePhantom(96, 96, 96)},
	}
	check := func(s *Session, name string, im *img.Image) {
		t.Helper()
		res, err := s.Run(context.Background(), im)
		if err != nil || res.Status != StatusCompleted {
			t.Fatalf("%s: %v, %v (%s)", name, res.Status, err, res.Reason)
		}
		if err := res.Mesh.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.DanglingPoorCount != 0 {
			t.Errorf("%s: dangling poor count %d", name, res.Stats.DanglingPoorCount)
		}
		alloc, live := res.Mesh.NumCellsAllocated(), res.Mesh.NumLiveCells()
		t.Logf("%s: %d cells allocated, %d live (%.3fx)", name, alloc, live, float64(alloc)/float64(live))
		if alloc > 2*live {
			t.Errorf("%s: %d cells allocated for %d live (%.2fx), want at most 2x",
				name, alloc, live, float64(alloc)/float64(live))
		}
	}
	const stall = 10 * time.Second
	s, err := NewSession(Config{Workers: 2, LivelockTimeout: stall})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pass := 0; pass < 2; pass++ {
		for _, im := range images {
			check(s, fmt.Sprintf("%s pass %d", im.name, pass), im.im)
		}
	}

	inj := faultinject.New(faultinject.Config{Seed: 1, Rates: map[faultinject.Point]float64{faultinject.LockDeny: 0.02}})
	defer faultinject.Enable(inj)()
	for _, cm := range []string{"global", "local"} {
		s, err := NewSession(Config{Workers: 2, ContentionManager: cm, LivelockTimeout: stall})
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range images {
			check(s, fmt.Sprintf("%s %s-CM, lock denials", im.name, cm), im.im)
		}
		s.Close()
	}
	if inj.Fired(faultinject.LockDeny) == 0 {
		t.Fatal("no lock acquisition was denied")
	}
}
