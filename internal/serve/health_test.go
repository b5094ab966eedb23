package serve

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/img"
)

// sessionPtr reads the session currently installed in free slot i of
// an idle pool.
func sessionPtr(p *Pool, i int) *core.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free[i].s
}

// TestAbortedSessionQuarantined: a WorkerPanic storm aborts the run,
// and the abort replaces the slot's session before the job returns —
// the pool must never hand that session to the next caller
// uninspected.
func TestAbortedSessionQuarantined(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1})
	image := img.SpherePhantom(12)

	old := sessionPtr(srv.pool, 0)
	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Seed:  1,
		Rates: map[faultinject.Point]float64{faultinject.WorkerPanic: 1},
		After: map[faultinject.Point]int64{faultinject.WorkerPanic: 20},
	}))
	_, err := srv.MeshSnapshot(context.Background(), "quarantine-abort", "", image, nil)
	restore()
	if err == nil {
		t.Fatal("panicked run returned no error")
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("unexpected error: %v", err)
	}

	if q := srv.pool.Stats().Quarantines; q != 1 {
		t.Errorf("quarantines = %d, want 1", q)
	}
	if cur := sessionPtr(srv.pool, 0); cur == old {
		t.Error("slot still holds the aborted session (pre-fix behavior: returned to the pool uninspected)")
	}

	// The fresh session serves the next job normally.
	if _, err := srv.MeshSnapshot(context.Background(), "quarantine-abort", "", image, nil); err != nil {
		t.Fatalf("run on rebuilt session: %v", err)
	}
}

// TestFailedRunQuarantined: one failed run is enough — a single
// RunPoisoned run gets its session replaced, and the next run on the
// slot is clean.
func TestFailedRunQuarantined(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1})
	image := img.SpherePhantom(10)
	old := sessionPtr(srv.pool, 0)

	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{faultinject.RunPoisoned: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.RunPoisoned: 1},
	}))
	defer restore()
	if _, err := srv.MeshSnapshot(context.Background(), "poisoned", "", image, nil); err == nil {
		t.Fatal("poisoned run returned no error")
	}
	if q := srv.pool.Stats().Quarantines; q != 1 {
		t.Errorf("after one failed run: quarantines = %d, want 1", q)
	}
	if cur := sessionPtr(srv.pool, 0); cur == old {
		t.Error("slot still holds the session whose run failed")
	}
	if _, err := srv.MeshSnapshot(context.Background(), "poisoned", "", image, nil); err != nil {
		t.Fatalf("run on the rebuilt session: %v", err)
	}
	if q := srv.pool.Stats().Quarantines; q != 1 {
		t.Errorf("quarantines = %d after a clean run, want still 1", q)
	}
}
