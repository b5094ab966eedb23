package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/img"
)

// TestBreakerStateMachine drives the table directly through
// closed → open → half-open → open → half-open → closed.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	tb := newBreakerTable(2, time.Second)

	if ok, _ := tb.admitLocked("k", now); !ok {
		t.Fatal("closed breaker denied a leader")
	}
	tb.reportLocked("k", false, now)
	if ok, _ := tb.admitLocked("k", now); !ok {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	if !tb.reportLocked("k", false, now) {
		t.Fatal("second failure did not trip the breaker")
	}
	if ok, retry := tb.admitLocked("k", now.Add(100*time.Millisecond)); ok {
		t.Fatal("open breaker admitted a leader inside the cooldown")
	} else if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v outside (0, cooldown]", retry)
	}

	// Cooldown over: exactly one probe.
	probeAt := now.Add(1100 * time.Millisecond)
	if ok, _ := tb.admitLocked("k", probeAt); !ok {
		t.Fatal("half-open breaker denied the first probe")
	}
	if ok, _ := tb.admitLocked("k", probeAt); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	if n := tb.openCountLocked(); n != 1 {
		t.Fatalf("open count = %d, want 1 (half-open counts)", n)
	}

	// Failed probe reopens; a capacity-rejected probe just returns the
	// slot.
	tb.reportLocked("k", false, probeAt)
	if ok, _ := tb.admitLocked("k", probeAt.Add(10*time.Millisecond)); ok {
		t.Fatal("reopened breaker admitted a leader immediately")
	}
	probe2 := probeAt.Add(1100 * time.Millisecond)
	if ok, _ := tb.admitLocked("k", probe2); !ok {
		t.Fatal("second half-open denied its probe")
	}
	tb.releaseProbeLocked("k")
	if ok, _ := tb.admitLocked("k", probe2); !ok {
		t.Fatal("released probe slot not reusable")
	}

	// Successful probe closes and forgets the breaker.
	tb.reportLocked("k", true, probe2)
	if n := tb.openCountLocked(); n != 0 {
		t.Fatalf("open count = %d after successful probe, want 0", n)
	}
	if _, present := tb.entries["k"]; present {
		t.Error("closed breaker entry not forgotten")
	}
}

// TestBreakerTripsAndRecovers: repeated leader failures for one
// (image, variant) key trip its breaker — fast-fail 503 without
// consuming a session — while other keys keep flowing; after the
// cooldown a successful probe closes it.
func TestBreakerTripsAndRecovers(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1})
	srv.coalesceMax = 1 // breakers must work without coalescing too
	srv.breakers.threshold, srv.breakers.cooldown = 2, 200*time.Millisecond
	poisoned := img.SpherePhantom(10)
	healthy := img.SpherePhantom(12)
	ctx := context.Background()

	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{faultinject.RunPoisoned: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.RunPoisoned: 2},
	}))
	defer restore()

	for i := 0; i < 2; i++ {
		if _, err := srv.MeshSnapshot(ctx, "poisoned-key", "", poisoned, nil); err == nil {
			t.Fatalf("poisoned run %d returned no error", i)
		}
	}
	if n := srv.mBreakerTrips.Value(); n != 1 {
		t.Fatalf("breaker trips = %d, want 1", n)
	}
	checkoutsBefore := srv.pool.Stats().Checkouts

	// Open breaker: fast-fail with a positive Retry-After, no session
	// consumed.
	_, err := srv.MeshSnapshot(ctx, "poisoned-key", "", poisoned, nil)
	var brk *BreakerOpenError
	if !errors.As(err, &brk) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker request returned %v, want BreakerOpenError", err)
	}
	if brk.RetryAfter <= 0 {
		t.Errorf("breaker Retry-After = %v, want > 0", brk.RetryAfter)
	}
	if n := srv.pool.Stats().Checkouts; n != checkoutsBefore {
		t.Errorf("fast-fail consumed a session (checkouts %d → %d)", checkoutsBefore, n)
	}
	if n := srv.mRejected.Value("breaker_open"); n != 1 {
		t.Errorf("breaker_open rejections = %d, want 1", n)
	}

	// Healthy keys are unaffected while the poisoned key is open.
	if _, err := srv.MeshSnapshot(ctx, "healthy-key", "", healthy, nil); err != nil {
		t.Fatalf("healthy key failed while another key's breaker is open: %v", err)
	}

	// After the cooldown the probe is admitted; the fault storm is
	// exhausted, so it succeeds and closes the breaker.
	time.Sleep(250 * time.Millisecond)
	if _, err := srv.MeshSnapshot(ctx, "poisoned-key", "", poisoned, nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if n := srv.Stats().BreakersOpen; n != 0 {
		t.Errorf("breakers open after successful probe = %d, want 0", n)
	}
	if _, err := srv.MeshSnapshot(ctx, "poisoned-key", "", poisoned, nil); err != nil {
		t.Fatalf("run after breaker closed: %v", err)
	}
}

// TestBreakerHalfOpenSingleProbe: while the half-open trial leader is
// still running, a second arrival for the same key is fast-failed —
// exactly one probe at a time.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 2})
	srv.coalesceMax = 1 // forbid joining the probe's flight: force the breaker decision
	srv.breakers.threshold, srv.breakers.cooldown = 1, 50*time.Millisecond
	image := img.SpherePhantom(10)
	ctx := context.Background()

	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{faultinject.RunPoisoned: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.RunPoisoned: 1},
	}))
	defer restore()
	if _, err := srv.MeshSnapshot(ctx, "probe-key", "v", image, nil); err == nil {
		t.Fatal("poisoned run returned no error")
	}
	time.Sleep(60 * time.Millisecond) // cooldown elapses: next leader is the probe

	entered := make(chan struct{})
	gate := make(chan struct{})
	probec := make(chan error, 1)
	go func() {
		_, err := srv.MeshSnapshot(ctx, "probe-key", "v", image, func(*core.Config) {
			close(entered)
			<-gate
		})
		probec <- err
	}()
	<-entered

	// Probe in flight: same-key arrivals are denied, not queued.
	_, err := srv.MeshSnapshot(ctx, "probe-key", "v", image, nil)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second arrival during probe returned %v, want ErrBreakerOpen", err)
	}

	close(gate)
	if err := <-probec; err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if n := srv.Stats().BreakersOpen; n != 0 {
		t.Errorf("breakers open after probe success = %d, want 0", n)
	}
}
