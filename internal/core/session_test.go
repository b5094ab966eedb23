package core

import (
	"context"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/quality"
)

// meshFingerprint hashes the final mesh's geometry: every final cell's
// four vertex positions, in list order. With Workers=1 the refinement
// is fully deterministic, so two identical runs must produce identical
// fingerprints.
func meshFingerprint(res *Result) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	write := func(f float64) {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf)
	}
	for _, ch := range res.Final {
		c := res.Mesh.Cells.At(ch)
		for _, vh := range c.V {
			p := res.Mesh.Pos(vh)
			write(p.X)
			write(p.Y)
			write(p.Z)
		}
	}
	return h.Sum64()
}

// TestSessionWarmRunDeterministic is the acceptance gate of the warm
// path: a warm re-Run on the same Session must be bit-identical to the
// cold run under the same (sequential) configuration — same element
// count, same geometry, same quality stats.
func TestSessionWarmRunDeterministic(t *testing.T) {
	im := img.SpherePhantom(32)
	s, err := NewSession(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cold, err := s.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	coldN := cold.Elements()
	coldFP := meshFingerprint(cold)
	coldQ := cold.Quality()

	for i := 0; i < 2; i++ {
		warm, err := s.Run(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Elements() != coldN {
			t.Fatalf("warm run %d: %d elements, cold had %d", i, warm.Elements(), coldN)
		}
		if fp := meshFingerprint(warm); fp != coldFP {
			t.Fatalf("warm run %d: fingerprint %x, cold %x — warm path is not bit-identical", i, fp, coldFP)
		}
		if q := warm.Quality(); q != coldQ {
			t.Fatalf("warm run %d: quality stats %+v, cold %+v", i, q, coldQ)
		}
		if warm.Stats.DanglingPoorCount != 0 {
			t.Fatalf("warm run %d: dangling poor count %d", i, warm.Stats.DanglingPoorCount)
		}
	}
	st := s.Stats()
	if st.Runs != 3 || st.WarmRuns != 2 || st.WarmEDTHits != 2 {
		t.Errorf("session stats %+v, want 3 runs / 2 warm / 2 EDT hits", st)
	}
}

// TestSessionWarmMatchesColdSession checks warm-vs-cold across session
// boundaries too: a second session's cold run matches the first
// session's warm run.
func TestSessionWarmMatchesColdSession(t *testing.T) {
	im := img.SpherePhantom(24)
	cfg := Config{Workers: 1}

	s1, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if _, err := s1.Run(context.Background(), im); err != nil {
		t.Fatal(err)
	}
	warm, err := s1.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cold, err := s2.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if meshFingerprint(warm) != meshFingerprint(cold) {
		t.Fatal("warm run differs from an independent cold run")
	}
}

// TestSessionWarmAllocReduction measures the point of the session: a
// warm run must allocate far less than a cold one. The ISSUE gate is
// >= 30% fewer allocations; this asserts the same with headroom for
// timer/runtime noise.
func TestSessionWarmAllocReduction(t *testing.T) {
	im := img.SpherePhantom(32)
	cfg := Config{Workers: 1}

	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	var coldAllocs uint64
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	coldAllocs = mallocs(func() {
		if _, err := s.Run(context.Background(), im); err != nil {
			t.Fatal(err)
		}
	})
	// Second run warms every path; measure the third.
	if _, err := s.Run(context.Background(), im); err != nil {
		t.Fatal(err)
	}
	warmAllocs := mallocs(func() {
		if _, err := s.Run(context.Background(), im); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold: %d mallocs, warm: %d mallocs (%.1f%%)",
		coldAllocs, warmAllocs, 100*float64(warmAllocs)/float64(coldAllocs))
	if float64(warmAllocs) > 0.7*float64(coldAllocs) {
		t.Errorf("warm run allocates %d, cold %d — less than 30%% saved", warmAllocs, coldAllocs)
	}
}

// TestSessionShapeChange re-runs one session across images of
// different shapes and deltas; every run must produce a valid result
// (grids and mesh rebuild as needed).
func TestSessionShapeChange(t *testing.T) {
	s, err := NewSession(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, im := range []*img.Image{
		img.SpherePhantom(24),
		img.SpherePhantom(32),
		img.TorusPhantom(24),
		img.SpherePhantom(24),
	} {
		res, err := s.Run(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		if res.Elements() == 0 {
			t.Fatal("empty final mesh")
		}
		if res.Stats.DanglingPoorCount != 0 {
			t.Fatalf("dangling poor count %d", res.Stats.DanglingPoorCount)
		}
		if topo := quality.SurfaceTopology(res.Snapshot().BoundaryTriangles()); !topo.Closed {
			t.Fatalf("boundary not closed: %v", topo)
		}
	}
}

// TestSessionBoxChangeAndBack runs box A, box B, box A on one session.
// The second run bootstraps anew and replaces the recorded bootstrap;
// the third must bootstrap A again — not restore B's record, not a
// stale A — and so equal a cold run of A on a fresh session bit for
// bit, as must a fourth that restores A by copy.
func TestSessionBoxChangeAndBack(t *testing.T) {
	cfg := Config{Workers: 1}
	a, b := img.SpherePhantom(24), img.AbdominalPhantom(30, 30, 20)
	alo, ahi := a.Bounds()
	if blo, bhi := b.Bounds(); alo == blo && ahi == bhi {
		t.Fatal("the two images share a virtual box")
	}
	cold := func(im *img.Image) (int, uint64) {
		t.Helper()
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Run(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elements(), meshFingerprint(res)
	}
	wantN := map[*img.Image]int{}
	wantFP := map[*img.Image]uint64{}
	wantN[a], wantFP[a] = cold(a)
	wantN[b], wantFP[b] = cold(b)

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, im := range []*img.Image{a, b, a, a} {
		res, err := s.Run(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		if n, fp := res.Elements(), meshFingerprint(res); n != wantN[im] || fp != wantFP[im] {
			t.Fatalf("run %d: %d elements, fingerprint %x; a cold run gives %d, %x", i, n, fp, wantN[im], wantFP[im])
		}
		if err := res.Mesh.Check(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestSessionWarmSmallerRunChecks: a warm run that needs fewer arena
// chunks than its predecessor must still sweep clean — Mesh.Check (and
// every LiveCells caller) walks the recycled chunks, so a previous
// run's cells left behind in them would read as live cells referencing
// removed vertices on a perfectly sound mesh.
func TestSessionWarmSmallerRunChecks(t *testing.T) {
	s, err := NewSession(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, scale := range []int{40, 12} {
		res, err := s.Run(context.Background(), img.SpherePhantom(scale))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Mesh.Check(); err != nil {
			t.Fatalf("SpherePhantom(%d) on the shared session: %v", scale, err)
		}
	}
}

// TestSessionWarmFaultStorm drives two consecutive runs of one session
// through a lock-denial, steal-drop storm: the warm path must complete
// each run with balanced bookkeeping and a closed boundary.
func TestSessionWarmFaultStorm(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed: 7,
		Rates: map[faultinject.Point]float64{
			faultinject.LockDeny:  0.02,
			faultinject.DropSteal: 0.25,
		},
		After: map[faultinject.Point]int64{faultinject.LockDeny: 500},
	})
	defer faultinject.Enable(inj)()

	im := img.SpherePhantom(32)
	s, err := NewSession(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 2; i++ {
		res, err := s.Run(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCompleted {
			t.Fatalf("run %d: status %v (%s), want completed", i, res.Status, res.Reason)
		}
		if res.Elements() == 0 {
			t.Fatalf("run %d: empty final mesh", i)
		}
		if res.Stats.DanglingPoorCount != 0 {
			t.Fatalf("run %d: dangling poor count %d", i, res.Stats.DanglingPoorCount)
		}
		if topo := quality.SurfaceTopology(res.Snapshot().BoundaryTriangles()); topo.BorderEdges != 0 {
			t.Fatalf("run %d: boundary has %d border edges", i, topo.BorderEdges)
		}
	}
	if inj.Fired(faultinject.LockDeny) == 0 {
		t.Fatal("storm denied no lock; the test exercised nothing")
	}
}

// TestSessionCancellation checks that a context passed to Run cancels
// a warm run just like a cold one.
func TestSessionCancellation(t *testing.T) {
	im := img.SpherePhantom(48)
	s, err := NewSession(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background(), im); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the run must abort promptly
	res, err := s.Run(ctx, im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusAborted {
		t.Fatalf("status %v, want aborted", res.Status)
	}
	// The session must remain usable after an aborted run.
	res, err = s.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("status %v after recovery run, want completed", res.Status)
	}
}

// TestSessionLifecycle covers construction-time validation, Close
// semantics and the EDT cache invalidation hook.
func TestSessionLifecycle(t *testing.T) {
	if _, err := NewSession(Config{ContentionManager: "bogus"}); err == nil {
		t.Error("bad contention manager accepted at NewSession")
	}
	if _, err := NewSession(Config{Balancer: "bogus"}); err == nil {
		t.Error("bad balancer accepted at NewSession")
	}
	if _, err := NewSession(Config{Delta: -1}); err == nil {
		t.Error("negative Delta accepted at NewSession")
	}

	s, err := NewSession(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), nil); err == nil {
		t.Error("nil image accepted")
	}

	im := img.SpherePhantom(16)
	res, err := s.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}

	s.Invalidate()
	if _, err := s.Run(context.Background(), im); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WarmEDTHits != 0 {
		t.Errorf("EDT cache hit after Invalidate: %+v", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}
	if _, err := s.Run(context.Background(), im); err == nil {
		t.Error("Run on closed session succeeded")
	}
	// The last result's mesh must survive Close.
	if res.Elements() == 0 || res.Mesh.NumVerts() == 0 {
		t.Error("result invalidated by Close")
	}
}
