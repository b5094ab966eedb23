package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/wire"
)

// TestPoolReusesLastReleased: a client re-meshing one image
// sequentially lands on the session it released, so the new lease
// reuses that session's arenas and cached distance transform — on a
// pool of two, where a round-robin hand-out would miss every other run.
func TestPoolReusesLastReleased(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 2})
	p := srv.pool
	im := img.SpherePhantom(12)

	for run := 0; run < 3; run++ {
		before := p.Stats().Sessions
		l, err := p.Checkout(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.RunTuned(context.Background(), im, nil); err != nil {
			t.Fatal(err)
		}
		l.Release()
		after := p.Stats().Sessions
		edtHit, warm := after.WarmEDTHits > before.WarmEDTHits, after.WarmRuns > before.WarmRuns
		if run == 0 {
			if edtHit || warm {
				t.Errorf("first run on a cold pool: EDT hit %v, warm %v", edtHit, warm)
			}
			continue
		}
		if !edtHit {
			t.Errorf("sequential rerun %d did not hit the EDT cache", run)
		}
		if !warm {
			t.Errorf("sequential rerun %d was not warm", run)
		}
	}

	if st := p.Stats(); st.Sessions.WarmEDTHits != 2 || st.Sessions.Runs != 3 {
		t.Errorf("aggregated runs/WarmEDTHits = %d/%d, want 3/2", st.Sessions.Runs, st.Sessions.WarmEDTHits)
	}
	if n := p.EvictIdle(0); n != 1 {
		t.Errorf("evicted %d sessions, want 1 (the other never ran)", n)
	}
}

func TestPoolCheckoutBlocksAndDeadline(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	p := srv.pool
	l, err := p.Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// With the only session leased, a bounded checkout must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p.Checkout(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("checkout on exhausted pool: err = %v, want deadline", err)
	}

	// Releasing unblocks a waiter.
	done := make(chan error, 1)
	go func() {
		l2, err := p.Checkout(context.Background())
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
	srv, _ := newTestServer(t, Config{PoolSize: 2})
	p := srv.pool
	im := img.SpherePhantom(12)
	l, err := p.Checkout(context.Background())
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
	l2, err := p.Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Release()
	res, err := l2.RunTuned(context.Background(), im, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements() == 0 {
		t.Fatal("rebuilt session produced an empty mesh")
	}
}

func TestPoolCloseFailsWaiters(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	p := srv.pool
	l, err := p.Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Checkout(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	if err := <-done; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("waiter got %v, want ErrPoolClosed", err)
	}
	l.Release() // lease outlives Close; releasing must not panic
	if _, err := p.Checkout(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatal("checkout after close succeeded")
	}
}

// TestPoolConcurrentRunners hammers a 2-session pool from 8
// goroutines; every run must succeed (leases guarantee exclusivity,
// so no ErrSessionBusy can surface). Run under -race in CI.
func TestPoolConcurrentRunners(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 2})
	p := srv.pool
	im := img.SpherePhantom(12)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := p.Checkout(context.Background())
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
// — so nothing reachable from /metrics or /readyz may ask a
// session anything while holding it. With a run parked in its tune hook,
// each probe (and a checkout of the other, free session) returns at once.
func TestStatsNeverWaitsOnARun(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2})
	srv.cache = nil // nothing is asked twice: a cache would only write
	entered, unpark := make(chan struct{}), make(chan struct{})
	runDone := make(chan error, 1)
	body := nrrdBody(t, 8)
	go func() {
		_, err := srv.walk(context.Background(), &job{key: wire.ImageKey(body), variant: "v", body: body,
			tune: func(*core.Config) { close(entered); <-unpark }})
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
		{"GET /readyz", get("/readyz")},
		{"Pool.Stats", func() {
			if st := srv.pool.Stats(); st.Busy != 1 {
				t.Errorf("busy = %d with one run parked, want 1", st.Busy)
			}
		}},
		{"Checkout+Release of the free session", func() {
			l, err := srv.pool.Checkout(context.Background())
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
