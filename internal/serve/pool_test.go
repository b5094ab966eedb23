package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/img"
)

func testPool(t *testing.T, n int) *Pool {
	t.Helper()
	p, err := NewPool(n, 16, core.Config{Workers: 1, LivelockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPoolAffinityRouting(t *testing.T) {
	p := testPool(t, 2)
	im := img.SpherePhantom(12)

	// First run on key "a" lands somewhere and warms that session.
	l, err := p.Checkout(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if l.AffinityHit() {
		t.Error("cold pool reported an affinity hit")
	}
	if _, err := l.RunTuned(context.Background(), im, nil); err != nil {
		t.Fatal(err)
	}
	l.Release()

	// A checkout for the same key must be routed back to it, and the
	// run must reuse the cached distance transform (same image
	// pointer through the same session).
	l2, err := p.Checkout(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Release()
	if !l2.AffinityHit() {
		t.Error("checkout for a known key missed affinity")
	}
	if _, err := l2.RunTuned(context.Background(), im, nil); err != nil {
		t.Fatal(err)
	}
	if !l2.EDTHit() {
		t.Error("affinity-routed rerun did not hit the EDT cache")
	}
	if !l2.WarmRun() {
		t.Error("affinity-routed rerun was not warm")
	}

	st := p.Stats()
	if st.AffinityHits != 1 {
		t.Errorf("AffinityHits = %d, want 1", st.AffinityHits)
	}
	if st.Sessions.WarmEDTHits != 1 {
		t.Errorf("aggregated WarmEDTHits = %d, want 1", st.Sessions.WarmEDTHits)
	}
}

func TestPoolCheckoutBlocksAndDeadline(t *testing.T) {
	p := testPool(t, 1)
	l, err := p.Checkout(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}

	// With the only session leased, a bounded checkout must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p.Checkout(ctx, "x"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("checkout on exhausted pool: err = %v, want deadline", err)
	}

	// Releasing unblocks a waiter.
	done := make(chan error, 1)
	go func() {
		l2, err := p.Checkout(context.Background(), "x")
		if err == nil {
			l2.Release()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not wake the waiter")
	}
}

func TestPoolEvictIdle(t *testing.T) {
	p := testPool(t, 2)
	im := img.SpherePhantom(12)
	l, err := p.Checkout(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.RunTuned(context.Background(), im, nil); err != nil {
		t.Fatal(err)
	}
	l.Release()

	if n := p.EvictIdle(time.Hour); n != 0 {
		t.Fatalf("evicted %d sessions that were not idle long enough", n)
	}
	if n := p.EvictIdle(0); n != 1 {
		t.Fatalf("evicted %d sessions, want exactly the 1 that ever ran", n)
	}
	st := p.Stats()
	if st.Evictions != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}

	// The evicted slot must serve again, cold.
	l2, err := p.Checkout(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Release()
	if l2.AffinityHit() {
		t.Error("eviction left stale affinity behind")
	}
	res, err := l2.RunTuned(context.Background(), im, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements() == 0 {
		t.Fatal("rebuilt session produced an empty mesh")
	}
}

func TestPoolCloseFailsWaiters(t *testing.T) {
	p := testPool(t, 1)
	l, err := p.Checkout(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Checkout(context.Background(), "")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	if err := <-done; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("waiter got %v, want ErrPoolClosed", err)
	}
	l.Release() // lease outlives Close; releasing must not panic
	if _, err := p.Checkout(context.Background(), ""); !errors.Is(err, ErrPoolClosed) {
		t.Fatal("checkout after close succeeded")
	}
}

// TestPoolConcurrentRunners hammers a 2-session pool from 8
// goroutines; every run must succeed (leases guarantee exclusivity,
// so no ErrSessionBusy can surface). Run under -race in CI.
func TestPoolConcurrentRunners(t *testing.T) {
	p := testPool(t, 2)
	im := img.SpherePhantom(12)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := p.Checkout(context.Background(), "same")
			if err != nil {
				t.Errorf("checkout: %v", err)
				return
			}
			defer l.Release()
			res, err := l.RunTuned(context.Background(), im, nil)
			if err != nil {
				t.Errorf("run: %v", err)
				return
			}
			if res.Elements() == 0 {
				t.Error("empty mesh")
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Sessions.Runs != 8 {
		t.Fatalf("runs = %d, want 8", st.Sessions.Runs)
	}
	if st.Sessions.BusyRejects != 0 {
		t.Fatalf("leased sessions were hit concurrently: %d busy rejects", st.Sessions.BusyRejects)
	}
}

// TestStatsNeverWaitsOnARun: a session holds its own lock for the whole
// of a run, and p.mu is what every checkout, release and grant waits on
// — so nothing reachable from /metrics, /v1/stats or /readyz may ask a
// session anything while holding it. With a run parked in its tune hook,
// each probe (and a checkout of the other, free session) returns at once.
func TestStatsNeverWaitsOnARun(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2})
	entered, unpark := make(chan struct{}), make(chan struct{})
	runDone := make(chan error, 1)
	go func() {
		_, err := srv.MeshSnapshot(context.Background(), "parked", "v", img.SpherePhantom(8),
			func(*core.Config) { close(entered); <-unpark })
		runDone <- err
	}()
	<-entered

	get := func(path string) func() {
		return func() {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}
	probes := []struct {
		name string
		fn   func()
	}{
		{"GET /metrics", get("/metrics")},
		{"GET /v1/stats", get("/v1/stats")},
		{"GET /readyz", get("/readyz")},
		{"Pool.Stats", func() {
			if st := srv.pool.Stats(); st.Busy != 1 {
				t.Errorf("busy = %d with one run parked, want 1", st.Busy)
			}
		}},
		{"Checkout+Release of the free session", func() {
			l, err := srv.pool.Checkout(context.Background(), "other")
			if err != nil || l == nil {
				t.Errorf("Checkout = %v, %v, want the free session", l, err)
				return
			}
			l.Release()
		}},
	}
	var wg sync.WaitGroup
	for _, p := range probes {
		done := make(chan struct{})
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			defer close(done)
			fn()
		}(p.fn)
		select {
		case <-done:
		case <-time.After(50 * time.Millisecond):
			t.Errorf("%s still waiting after 50ms behind a parked run", p.name)
		}
	}
	close(unpark)
	wg.Wait()
	if err := <-runDone; err != nil {
		t.Fatalf("parked run: %v", err)
	}
	if st := srv.pool.Stats(); st.Sessions.Runs != 1 {
		t.Errorf("sessions.runs = %d after the run returned, want 1", st.Sessions.Runs)
	}
}
