package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/wire"
)

// poolRow is one checkout-and-release scenario on a server's pool of
// size sessions. Once act returns, the pool must be whole — no lease
// held, no waiter queued, no leased session hit twice at once — and
// its run, warm-EDT-hit (unless negative) and eviction counts at what
// the row says.
type poolRow struct {
	size          int
	act           func(t *testing.T, s *Server, p *Pool)
	runs, edtHits int
	evictions     int64
}

func runPool(t *testing.T, row poolRow) {
	srv, _ := newTestServer(t, Config{PoolSize: row.size})
	row.act(t, srv, srv.pool)
	st := srv.pool.Stats()
	if st.Busy != 0 || srv.pool.Waiters() != 0 || st.Sessions.BusyRejects != 0 {
		t.Errorf("after the scenario: %d busy, %d waiting, %d busy rejects; want an idle pool", st.Busy, srv.pool.Waiters(), st.Sessions.BusyRejects)
	}
	if row.edtHits < 0 { // which session a run lands on is the scheduler's
		row.edtHits = st.Sessions.WarmEDTHits
	}
	if st.Sessions.Runs != row.runs || st.Sessions.WarmEDTHits != row.edtHits || st.Evictions != row.evictions {
		t.Errorf("runs %d, warm EDT hits %d, evictions %d; want %d, %d, %d",
			st.Sessions.Runs, st.Sessions.WarmEDTHits, st.Evictions, row.runs, row.edtHits, row.evictions)
	}
}

// checkout takes a lease that must be granted.
func checkout(t *testing.T, p *Pool) *Lease {
	t.Helper()
	l, err := p.Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// runOn meshes a scale-12 phantom on l and releases it, reporting
// whether the run was warm and hit the session's EDT cache.
func runOn(t *testing.T, p *Pool, l *Lease) (warm, edtHit bool) {
	defer l.Release()
	before := p.Stats().Sessions
	if res, err := l.RunTuned(context.Background(), phantom12, nil); err != nil || res.Elements() == 0 {
		t.Errorf("run: %v", err)
	}
	after := p.Stats().Sessions
	return after.WarmRuns > before.WarmRuns, after.WarmEDTHits > before.WarmEDTHits
}

var phantom12 = img.SpherePhantom(12)

// waiting starts a checkout under ctx and returns once it queues; the
// channel yields its lease (released at once) or its error.
func waiting(t *testing.T, p *Pool, ctx context.Context) <-chan error {
	c := make(chan error, 1)
	n := p.Waiters()
	go func() {
		l, err := p.Checkout(ctx)
		if err == nil {
			l.Release()
		}
		c <- err
	}()
	waitWaiters(t, p, n+1)
	return c
}

// TestPoolReusesLastReleased: a client re-meshing one image
// sequentially lands on the session it released, so the new lease
// reuses that session's arenas and cached distance transform — on a
// pool of two, where a round-robin hand-out would miss every other run.
func TestPoolReusesLastReleased(t *testing.T) {
	runPool(t, poolRow{size: 2, runs: 3, edtHits: 2, evictions: 1, act: func(t *testing.T, _ *Server, p *Pool) {
		for run := 0; run < 3; run++ {
			if warm, hit := runOn(t, p, checkout(t, p)); warm != (run > 0) || hit != (run > 0) {
				t.Errorf("run %d: warm %v, EDT hit %v", run, warm, hit)
			}
		}
		if n := p.EvictIdle(0); n != 1 {
			t.Errorf("evicted %d sessions, want 1 (the other never ran)", n)
		}
	}})
}

// TestPoolCheckoutBlocksAndDeadline: with every session leased a
// bounded checkout ends at its deadline, and a release wakes a waiter.
func TestPoolCheckoutBlocksAndDeadline(t *testing.T) {
	runPool(t, poolRow{size: 1, act: func(t *testing.T, _ *Server, p *Pool) {
		l := checkout(t, p)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if _, err := p.Checkout(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("checkout on an exhausted pool: %v, want its deadline", err)
		}
		woken := waiting(t, p, context.Background())
		l.Release()
		if err := <-woken; err != nil {
			t.Errorf("the waiter failed: %v", err)
		}
	}})
}

// TestPoolEvictIdle: only a session idle past the bound is evicted,
// only one that ever ran, and the evicted slot serves again, cold.
func TestPoolEvictIdle(t *testing.T) {
	runPool(t, poolRow{size: 2, runs: 2, evictions: 1, act: func(t *testing.T, _ *Server, p *Pool) {
		runOn(t, p, checkout(t, p))
		if n := p.EvictIdle(time.Hour); n != 0 {
			t.Errorf("evicted %d sessions that were not idle long enough", n)
		}
		if n := p.EvictIdle(0); n != 1 {
			t.Errorf("evicted %d sessions, want exactly the 1 that ever ran", n)
		}
		if warm, _ := runOn(t, p, checkout(t, p)); warm {
			t.Error("the rebuilt session ran warm")
		}
	}})
}

// TestPoolCloseFailsWaiters: Close fails the queued checkouts and every
// later one; a lease that outlives it still releases.
func TestPoolCloseFailsWaiters(t *testing.T) {
	runPool(t, poolRow{size: 1, act: func(t *testing.T, _ *Server, p *Pool) {
		l := checkout(t, p)
		failed := waiting(t, p, context.Background())
		p.Close()
		if err := <-failed; !errors.Is(err, ErrPoolClosed) {
			t.Errorf("the waiter got %v, want ErrPoolClosed", err)
		}
		l.Release()
		if _, err := p.Checkout(context.Background()); !errors.Is(err, ErrPoolClosed) {
			t.Errorf("a checkout after Close: %v, want ErrPoolClosed", err)
		}
	}})
}

// TestPoolConcurrentRunners: eight goroutines on two sessions all run;
// leases guarantee exclusivity, so no busy reject surfaces (CI races it).
func TestPoolConcurrentRunners(t *testing.T) {
	runPool(t, poolRow{size: 2, runs: 8, edtHits: -1, act: func(t *testing.T, _ *Server, p *Pool) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runOn(t, p, checkout(t, p))
			}()
		}
		wg.Wait()
	}})
}

// TestCheckoutServesWaitersInArrivalOrder: a freed session goes to the
// oldest waiter, whatever the deadlines. Every lease lasts one mesh run
// (a simulate solve runs off-lease), so a far-deadline waiter holds no
// one up for long, and a later near-deadline one must not overtake it.
func TestCheckoutServesWaitersInArrivalOrder(t *testing.T) {
	runPool(t, poolRow{size: 1, act: func(t *testing.T, _ *Server, p *Pool) {
		hold := checkout(t, p)
		order := make(chan string, 2)
		for _, w := range []struct {
			who string
			d   time.Duration
		}{{"hour", time.Hour}, {"minute", time.Minute}} {
			ctx, cancel := context.WithTimeout(context.Background(), w.d)
			defer cancel()
			n := p.Waiters()
			go func() {
				if l, err := p.Checkout(ctx); err == nil {
					order <- w.who
					l.Release()
				}
			}()
			waitWaiters(t, p, n+1)
		}
		hold.Release()
		if first, second := <-order, <-order; first != "hour" || second != "minute" {
			t.Errorf("granted %s, then %s: want arrival order", first, second)
		}
	}})
}

// TestCheckoutCanceledWaiterReleasesGrant: a waiter whose context
// dies hands any in-flight grant on instead of leaking the session.
// The grant here lands after the cancellation has woken the waiter and
// before it takes p.mu, which is the race.
func TestCheckoutCanceledWaiterReleasesGrant(t *testing.T) {
	runPool(t, poolRow{size: 1, act: func(t *testing.T, _ *Server, p *Pool) {
		hold := checkout(t, p)
		ctx, cancel := context.WithCancel(context.Background())
		gone := waiting(t, p, ctx)
		p.mu.Lock()
		cancel()
		hold.released = true
		p.putLocked(hold.e)
		p.mu.Unlock()
		if err := <-gone; err == nil {
			t.Error("a canceled checkout got a lease")
		}
		ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if l, err := p.Checkout(ctx); err != nil {
			t.Errorf("the next checkout: %v", err)
		} else {
			l.Release()
		}
	}})
}

// TestAdmissionCountsWaitersOnly: a job that acquires a free session at
// once does not count against QueueDepth. Bursts of four distinct jobs
// on four free sessions under a queue depth of one all run.
func TestAdmissionCountsWaitersOnly(t *testing.T) {
	runPool(t, poolRow{size: 4, runs: 20, act: func(t *testing.T, s *Server, p *Pool) {
		s.cache = nil // nothing is asked twice: a cache would only write
		p.maxWaiters = 1
		base := nrrdBody(t, 6)
		for round := 0; round < 5; round++ {
			start, errs := make(chan struct{}), make(chan error, 4)
			for i := 0; i < 4; i++ {
				body := freshNRRD(base, int64(round), i)
				go func() {
					<-start
					_, err := s.walk(context.Background(), &job{key: wire.ImageKey(body), body: body})
					errs <- err
				}()
			}
			close(start)
			for i := 0; i < 4; i++ {
				if err := <-errs; err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		}
	}})
}

// TestStatsNeverWaitsOnARun: a session holds its own lock for the whole
// of a run, and p.mu is what every checkout, release and grant waits on
// — so nothing reachable from /metrics or /readyz may ask a session
// anything while holding it. With a run parked in its tune hook, each
// probe (and a checkout of the other, free session) returns at once.
func TestStatsNeverWaitsOnARun(t *testing.T) {
	runPool(t, poolRow{size: 2, runs: 1, act: func(t *testing.T, s *Server, p *Pool) {
		s.cache = nil // nothing is asked twice: a cache would only write
		entered, unpark := make(chan struct{}), make(chan struct{})
		runDone := make(chan error, 1)
		body := nrrdBody(t, 8)
		go func() {
			_, err := s.walk(context.Background(), &job{key: wire.ImageKey(body), variant: "v", body: body,
				tune: func(*core.Config) { close(entered); <-unpark }})
			runDone <- err
		}()
		<-entered
		get := func(path string) func() {
			return func() { s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil)) }
		}
		for name, fn := range map[string]func(){
			"GET /metrics": get("/metrics"),
			"GET /readyz":  get("/readyz"),
			"Pool.Stats": func() {
				if st := p.Stats(); st.Busy != 1 {
					t.Errorf("busy = %d with one run parked, want 1", st.Busy)
				}
			},
			"Checkout+Release of the free session": func() { checkout(t, p).Release() },
		} {
			done := make(chan struct{})
			go func() {
				defer close(done)
				fn()
			}()
			select {
			case <-done:
			case <-time.After(50 * time.Millisecond):
				t.Errorf("%s still waiting after 50ms behind a parked run", name)
				defer func() { <-done }()
			}
		}
		close(unpark)
		if err := <-runDone; err != nil {
			t.Errorf("parked run: %v", err)
		}
	}})
}

func waitWaiters(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d waiters (have %d)", n, p.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
}
