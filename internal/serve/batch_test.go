package serve

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/wire"
)

// waitMembers polls the flight table until the flight for ckey has at
// least want members (the deterministic join barrier of these tests).
func waitMembers(t *testing.T, s *Server, ckey string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.flightMu.Lock()
		n := 0
		if f := s.flights[ckey]; f != nil {
			n = f.members
		}
		s.flightMu.Unlock()
		if n >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flight %q never reached %d members", ckey, want)
}

type jobOutcome struct {
	sr  *SnapshotResult
	err error
}

// TestCoalesceFanOut is the deterministic single-flight contract: a
// leader gated mid-run (the tune hook executes inside the lease),
// three followers joining the flight, one session checkout, one run,
// and the identical snapshot pointer fanned out to everyone.
func TestCoalesceFanOut(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	srv.cache = nil // nothing is asked twice: a cache would only write
	body := nrrdBody(t, 8)
	key := wire.ImageKey(body)
	before := ledger(srv)

	gate := make(chan struct{})
	entered := make(chan struct{})
	leaderc := make(chan jobOutcome, 1)
	go func() {
		sr, err := srv.walk(context.Background(), &job{key: key, body: body, tune: func(*core.Config) {
			close(entered)
			<-gate
		}})
		leaderc <- jobOutcome{sr, err}
	}()
	<-entered // the leader is inside its run, holding the only session

	const followers = 3
	fc := make(chan jobOutcome, followers)
	for i := 0; i < followers; i++ {
		go func() {
			sr, err := srv.walk(context.Background(), &job{key: key, body: body})
			fc <- jobOutcome{sr, err}
		}()
	}
	waitMembers(t, srv, key, 1+followers)
	close(gate)

	leader := <-leaderc
	if leader.err != nil {
		t.Fatalf("leader: %v", leader.err)
	}
	if leader.sr.Summary.Coalesced {
		t.Error("leader summary marked Coalesced")
	}
	for i := 0; i < followers; i++ {
		f := <-fc
		if f.err != nil {
			t.Fatalf("follower: %v", f.err)
		}
		if f.sr.Snapshot != leader.sr.Snapshot {
			t.Error("follower received a different snapshot than the leader")
		}
		if !f.sr.Summary.Coalesced {
			t.Error("follower summary not marked Coalesced")
		}
		if f.sr.Summary.Run.Elements != leader.sr.Summary.Run.Elements {
			t.Error("follower run summary disagrees with the leader")
		}
	}

	if n := srv.mCoalesced.Value(); n != followers {
		t.Errorf("coalesced_jobs_total = %d, want %d", n, followers)
	}
	if n := srv.mRunSeconds.Count(); n != 1 {
		t.Errorf("run count = %d, want exactly 1 (single flight)", n)
	}
	if n := moved(before, ledger(srv))["leases"]; n != 1 {
		t.Errorf("session leases = %d, want 1", n)
	}
	if a, c := srv.mAccepted.Value(), srv.mCompleted.Value(); a != 1+followers || c != 1+followers {
		t.Errorf("accepted %d / completed %d, want %d each", a, c, 1+followers)
	}
	srv.flightMu.Lock()
	left := len(srv.flights)
	srv.flightMu.Unlock()
	if left != 0 {
		t.Errorf("%d flights left in the table after completion", left)
	}
}

// TestCoalesceGroupCap: with a cap of 2 members a full flight stops
// accepting members; the third identical job leads a second flight on
// its own session instead of joining.
func TestCoalesceGroupCap(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 2})
	srv.cache = nil // nothing is asked twice: a cache would only write
	srv.coalesceMax = 2
	body := nrrdBody(t, 8)
	key := wire.ImageKey(body)
	before := ledger(srv)

	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	tune := func(*core.Config) {
		entered <- struct{}{}
		<-gate
	}
	outc := make(chan jobOutcome, 3)
	run := func(tn func(*core.Config)) {
		go func() {
			sr, err := srv.walk(context.Background(), &job{key: key, body: body, tune: tn})
			outc <- jobOutcome{sr, err}
		}()
	}

	run(tune) // leader 1
	<-entered
	run(nil) // follower fills flight 1
	waitMembers(t, srv, key, 2)
	run(tune) // must start flight 2, not join the full one
	<-entered
	close(gate)

	for i := 0; i < 3; i++ {
		if o := <-outc; o.err != nil {
			t.Fatalf("job %d: %v", i, o.err)
		}
	}
	if n := srv.mCoalesced.Value(); n != 1 {
		t.Errorf("coalesced_jobs_total = %d, want 1 (cap keeps job 3 out)", n)
	}
	if n := moved(before, ledger(srv))["leases"]; n != 2 {
		t.Errorf("session leases = %d, want 2 (two leaders)", n)
	}
	if n := srv.mRunSeconds.Count(); n != 2 {
		t.Errorf("run count = %d, want 2", n)
	}
}

// TestCoalesceVariantsDoNotShare: same image, different quality knobs
// → different flights (a coalesced waiter must never receive a mesh
// built with someone else's parameters).
func TestCoalesceVariantsDoNotShare(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 2})
	srv.cache = nil // nothing is asked twice: a cache would only write
	body := nrrdBody(t, 8)
	key := wire.ImageKey(body)

	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	tune := func(*core.Config) {
		entered <- struct{}{}
		<-gate
	}
	outc := make(chan jobOutcome, 2)
	go func() {
		sr, err := srv.walk(context.Background(), &job{key: key, variant: "d=2", body: body, tune: tune})
		outc <- jobOutcome{sr, err}
	}()
	<-entered
	go func() {
		sr, err := srv.walk(context.Background(), &job{key: key, variant: "d=3", body: body, tune: tune})
		outc <- jobOutcome{sr, err}
	}()
	<-entered // the second variant ran its own tune: it did not coalesce
	close(gate)

	for i := 0; i < 2; i++ {
		if o := <-outc; o.err != nil {
			t.Fatalf("job %d: %v", i, o.err)
		}
	}
	if n := srv.mCoalesced.Value(); n != 0 {
		t.Errorf("coalesced_jobs_total = %d, want 0 across variants", n)
	}
}

// TestCoalesceHTTP is the acceptance scenario end to end: N identical
// concurrent POSTs while the pool's only session is held hostage, so
// all N provably overlap → exactly one meshing run, N byte-identical
// bodies, coalesced = N-1.
func TestCoalesceHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	srv.cache = nil // nothing is asked twice: a cache would only write
	client := ts.Client()
	body := nrrdBody(t, 10)
	key := wire.ImageKey(body)

	// Hold the only session: the leader queues, followers pile onto
	// its flight, and nothing can run until we let go.
	lease, err := srv.Pool().Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	replies := make(chan answer, n)
	for i := 0; i < n; i++ {
		go func() { replies <- send(t, client, "POST", ts.URL+"/v1/mesh", octet, body) }()
	}
	waitMembers(t, srv, key, n)
	lease.Release()

	var first []byte
	for i := 0; i < n; i++ {
		r := <-replies
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", r.StatusCode, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Error("coalesced responses are not byte-identical")
		}
	}
	if c := srv.mCoalesced.Value(); c != n-1 {
		t.Errorf("coalesced_jobs_total = %d, want %d", c, n-1)
	}
	if runs := srv.mRunSeconds.Count(); runs != 1 {
		t.Errorf("meshing runs = %d, want exactly 1", runs)
	}
}

// TestCoalesceSlowSession: the SlowSession fault stalls the leader
// inside its lease while followers wait on the flight. Everyone still
// gets the mesh, the stall shows up in the lease-occupancy histogram,
// and only one run happened.
func TestCoalesceSlowSession(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	srv.cache = nil // nothing is asked twice: a cache would only write
	client := ts.Client()
	body := nrrdBody(t, 10)
	key := wire.ImageKey(body)

	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Seed:  3,
		Rates: map[faultinject.Point]float64{faultinject.SlowSession: 1},
		Delay: 150 * time.Millisecond,
	}))
	defer restore()

	lease, err := srv.Pool().Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bodies [][]byte
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := send(t, client, "POST", ts.URL+"/v1/mesh", octet, body)
			if a.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", a.StatusCode, a.body)
				return
			}
			mu.Lock()
			bodies = append(bodies, a.body)
			mu.Unlock()
		}()
	}
	waitMembers(t, srv, key, n)
	lease.Release()
	wg.Wait()
	faultinject.Disable()

	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatal("responses diverged under SlowSession")
		}
	}
	if c := srv.mCoalesced.Value(); c != n-1 {
		t.Errorf("coalesced_jobs_total = %d, want %d", c, n-1)
	}
	if runs := srv.mRunSeconds.Count(); runs != 1 {
		t.Errorf("meshing runs = %d, want 1", runs)
	}
	// The injected stall sits inside the lease window; the occupancy
	// histogram must have seen it.
	if occ := srv.mLeaseSeconds.Snapshot(); occ.Count != 1 || occ.Sum < 0.14 {
		t.Errorf("lease occupancy count=%d sum=%v; expected one lease >= 140ms", occ.Count, occ.Sum)
	}
}
