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

// breakerNever is a BreakerThreshold no test reaches: it keeps the
// per-key breaker out of tests that are about the session ledger.
const breakerNever = 1 << 20

// sessionPtr reads the session currently installed in pool slot i.
func sessionPtr(p *Pool, i int) *core.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entries[i].s
}

// TestAbortedSessionQuarantined is the regression test for the
// pre-fix bug this PR exists for: a WorkerPanic storm exhausts the
// run's panic budget, the run aborts, and — before the health ledger
// — the pool returned that session to the next caller uninspected.
// Now the abort quarantines the slot, an asynchronous rebuild swaps
// in a fresh session, and capacity returns to PoolSize.
func TestAbortedSessionQuarantined(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1, BreakerThreshold: breakerNever})
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
		t.Fatal("panic-budget-exhausted run returned no error")
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("unexpected error: %v", err)
	}

	srv.pool.WaitSettled()
	if q := srv.pool.Quarantines(); q != 1 {
		t.Errorf("quarantines = %d, want 1", q)
	}
	if rb := srv.pool.Rebuilds(); rb != 1 {
		t.Errorf("rebuilds = %d, want 1", rb)
	}
	if h := srv.pool.Healthy(); h != 1 {
		t.Errorf("healthy sessions = %d, want 1 (pool must backfill)", h)
	}
	if cur := sessionPtr(srv.pool, 0); cur == old {
		t.Error("slot still holds the aborted session (pre-fix behavior: returned to the pool uninspected)")
	}

	// The rebuilt session serves the next job normally.
	if _, err := srv.MeshSnapshot(context.Background(), "quarantine-abort", "", image, nil); err != nil {
		t.Fatalf("run on rebuilt session: %v", err)
	}
}

// TestFailedRunQuarantined: one failed run is enough — a single
// RunPoisoned run quarantines its session, the slot is rebuilt, and the
// next run on it is clean.
func TestFailedRunQuarantined(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1, BreakerThreshold: breakerNever})
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
	srv.pool.WaitSettled()
	if q, rb, h := srv.pool.Quarantines(), srv.pool.Rebuilds(), srv.pool.Healthy(); q != 1 || rb != 1 || h != 1 {
		t.Errorf("after one failed run: quarantines = %d, rebuilds = %d, healthy = %d, want 1, 1 and 1", q, rb, h)
	}
	if cur := sessionPtr(srv.pool, 0); cur == old {
		t.Error("slot still holds the session whose run failed")
	}
	if _, err := srv.MeshSnapshot(context.Background(), "poisoned", "", image, nil); err != nil {
		t.Fatalf("run on the rebuilt session: %v", err)
	}
	if q := srv.pool.Quarantines(); q != 1 {
		t.Errorf("quarantines = %d after a clean run, want still 1", q)
	}
}

// TestRebuildFailRetry: a quarantined slot whose rebuild attempts fail
// (injected) retries with backoff until one succeeds; the pool ends at
// full healthy capacity with exactly one recorded rebuild.
func TestRebuildFailRetry(t *testing.T) {
	p := testPool(t, 1)
	in := faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{faultinject.RebuildFail: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.RebuildFail: 2},
	})
	restore := faultinject.Enable(in)
	defer restore()

	l, err := p.Checkout(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	l.MarkBad()
	l.Release()

	p.WaitSettled()
	if fired := in.Fired(faultinject.RebuildFail); fired != 2 {
		t.Errorf("rebuild-fail fired %d times, want 2", fired)
	}
	if rb := p.Rebuilds(); rb != 1 {
		t.Errorf("rebuilds = %d, want 1", rb)
	}
	if h := p.Healthy(); h != 1 {
		t.Errorf("healthy = %d, want 1", h)
	}
}

// TestWatchdogAbandon: a run that wedges (ignores its context, holds
// its lease) is canceled by the watchdog, abandoned after the grace
// window, and its session quarantined; the pool backfills and the
// next job runs on a fresh session.
func TestWatchdogAbandon(t *testing.T) {
	srv := newBareServer(t, Config{
		PoolSize:         1,
		WatchdogGrace:    50 * time.Millisecond,
		BreakerThreshold: breakerNever,
	})
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

	srv.pool.WaitSettled()
	if q := srv.pool.Quarantines(); q != 1 {
		t.Errorf("quarantines = %d, want 1", q)
	}
	if h := srv.pool.Healthy(); h != 1 {
		t.Errorf("healthy = %d, want 1 (backfill)", h)
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
// the job agreed to plus WatchdogGrace — not a multiple of the deadline
// that depends on how much run history the process has — and is then
// answered 503 watchdog, its session abandoned and its slot rebuilt.
func TestWatchdogLimitIsTheDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	const deadline = 200 * time.Millisecond
	grace := srv.cfg.WatchdogGrace

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
	srv.pool.WaitSettled()
	if rb, h := srv.pool.Rebuilds(), srv.pool.Healthy(); rb != 1 || h != 1 {
		t.Errorf("after the abandon: rebuilds = %d, healthy = %d, want 1 and 1", rb, h)
	}
	time.Sleep(600 * time.Millisecond) // let the wedged run come back under this test's injector
}

// TestReadyzZeroHealthy: with the only session quarantined and its
// rebuild failing, /readyz reports 503 while /healthz stays 200
// (liveness vs readiness); once rebuilds succeed, readiness returns.
func TestReadyzZeroHealthy(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1, BreakerThreshold: breakerNever})
	client := ts.Client()
	image := img.SpherePhantom(10)

	in := faultinject.New(faultinject.Config{
		Rates: map[faultinject.Point]float64{faultinject.RebuildFail: 1},
	})
	restore := faultinject.Enable(in)
	defer restore()

	// A panicking tune hook marks the session bad (the leader-panic
	// guard), quarantining the only slot; RebuildFail keeps it down.
	_, err := srv.MeshSnapshot(context.Background(), "readyz", "v", image,
		func(*core.Config) { panic("injected tune panic") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking run returned %v, want a panic-converted error", err)
	}

	get := func(path string) int {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.Healthy() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz with zero healthy sessions: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz with zero healthy sessions: %d, want 200 (still alive)", code)
	}

	// Let the rebuild succeed: readiness recovers without operator
	// action.
	in.Disarm(faultinject.RebuildFail)
	for time.Now().Before(deadline) {
		if get("/readyz") == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after rebuild: %d, want 200", code)
	}
	if _, err := srv.MeshSnapshot(context.Background(), "readyz", "", image, nil); err != nil {
		t.Fatalf("run after recovery: %v", err)
	}
}
