package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/wire"
)

// breakerNever is a breaker threshold no test reaches: it keeps the
// per-key breaker out of tests that are about the session ledger.
const breakerNever = 1 << 20

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
	srv.breakers.threshold = breakerNever
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
	srv.breakers.threshold = breakerNever
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

// TestWatchdogAbandon: a run that wedges (ignores its context, holds
// its lease) is canceled by the watchdog, abandoned after the grace
// window, and its session replaced; the next job runs on the fresh
// session.
func TestWatchdogAbandon(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1})
	srv.watchdogGrace = 50 * time.Millisecond
	srv.breakers.threshold = breakerNever
	image := img.SpherePhantom(10)
	old := sessionPtr(srv.pool, 0)

	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{faultinject.LeaseLeak: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.LeaseLeak: 1},
		Delay:    time.Second,
	}))
	defer restore()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := srv.MeshSnapshot(ctx, "watchdog", "", image, nil)
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("wedged run returned %v, want ErrWatchdog", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("caller blocked %v — the watchdog did not cut the wedged run loose", elapsed)
	}
	if k := srv.mWatchdogKills.Value(); k != 1 {
		t.Errorf("watchdog kills = %d, want 1", k)
	}
	if a := srv.mWatchdogAbandons.Value(); a != 1 {
		t.Errorf("watchdog abandons = %d, want 1", a)
	}

	if q := srv.pool.Stats().Quarantines; q != 1 {
		t.Errorf("quarantines = %d, want 1", q)
	}
	if cur := sessionPtr(srv.pool, 0); cur == old {
		t.Error("slot still holds the wedged session")
	}

	// The fresh session serves the next job; the wedged run's eventual
	// return must not disturb it (its session is closed by the reaper).
	if _, err := srv.MeshSnapshot(context.Background(), "watchdog", "", image, nil); err != nil {
		t.Fatalf("run after abandon: %v", err)
	}
	time.Sleep(1100 * time.Millisecond) // let the wedged run finish and the reaper close it
	if _, err := srv.MeshSnapshot(context.Background(), "watchdog", "", image, nil); err != nil {
		t.Fatalf("run after reaper: %v", err)
	}
}

// TestWatchdogLimitIsTheDeadline: on a freshly booted server with the
// default configuration, a wedged run holds its caller for the deadline
// the job agreed to plus the watchdog grace — not a multiple of the deadline
// that depends on how much run history the process has — and is then
// answered 503 watchdog, its session abandoned and replaced.
func TestWatchdogLimitIsTheDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	const deadline = 200 * time.Millisecond
	grace := srv.watchdogGrace

	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{faultinject.LeaseLeak: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.LeaseLeak: 1},
		Delay:    deadline + grace + 500*time.Millisecond,
	}))
	defer restore()

	start := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/mesh?timeout="+deadline.String(),
		"application/octet-stream", bytes.NewReader(nrrdBody(t, 8)))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	code, _ := readEnvelope(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || code != wire.CodeWatchdog {
		t.Fatalf("wedged run answered %d %q, want 503 %q", resp.StatusCode, code, wire.CodeWatchdog)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("watchdog rejection carries no Retry-After")
	}
	if limit := deadline + grace + 400*time.Millisecond; elapsed < deadline+grace || elapsed > limit {
		t.Errorf("caller held %v, want between deadline+grace = %v and %v", elapsed, deadline+grace, limit)
	}
	if a := srv.mWatchdogAbandons.Value(); a != 1 {
		t.Errorf("watchdog abandons = %d, want 1", a)
	}
	time.Sleep(600 * time.Millisecond) // let the wedged run come back under this test's injector
}
