package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/wire"
)

// newBareServer builds a Server without an HTTP front end for
// direct-API coalescing tests.
func newBareServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Session.Workers == 0 {
		cfg.Session.Workers = 1
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

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
	srv := newBareServer(t, Config{PoolSize: 1})
	image := img.SpherePhantom(8)
	const key = "coalesce-fanout"

	gate := make(chan struct{})
	entered := make(chan struct{})
	leaderc := make(chan jobOutcome, 1)
	go func() {
		sr, err := srv.MeshSnapshot(context.Background(), key, "", image, func(*core.Config) {
			close(entered)
			<-gate
		})
		leaderc <- jobOutcome{sr, err}
	}()
	<-entered // the leader is inside its run, holding the only session

	const followers = 3
	fc := make(chan jobOutcome, followers)
	for i := 0; i < followers; i++ {
		go func() {
			sr, err := srv.MeshSnapshot(context.Background(), key, "", image, nil)
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
	if n := srv.pool.Stats().Checkouts; n != 1 {
		t.Errorf("pool checkouts = %d, want 1", n)
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

// TestCoalesceLeaderError: a leader whose run dies (context canceled
// mid-run) must fan the error out — followers get the failure
// promptly, never a hang.
func TestCoalesceLeaderError(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1})
	image := img.SpherePhantom(8)
	const key = "coalesce-leader-error"

	lctx, cancelLeader := context.WithCancel(context.Background())
	gate := make(chan struct{})
	entered := make(chan struct{})
	leaderc := make(chan jobOutcome, 1)
	go func() {
		sr, err := srv.MeshSnapshot(lctx, key, "", image, func(*core.Config) {
			close(entered)
			<-gate
		})
		leaderc <- jobOutcome{sr, err}
	}()
	<-entered

	const followers = 2
	fc := make(chan jobOutcome, followers)
	for i := 0; i < followers; i++ {
		go func() {
			sr, err := srv.MeshSnapshot(context.Background(), key, "", image, nil)
			fc <- jobOutcome{sr, err}
		}()
	}
	waitMembers(t, srv, key, 1+followers)

	cancelLeader()
	close(gate)

	leader := <-leaderc
	if leader.err == nil {
		t.Fatal("canceled leader returned no error")
	}
	for i := 0; i < followers; i++ {
		select {
		case f := <-fc:
			if f.err == nil {
				t.Error("follower of a failed leader returned no error")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("follower hung after leader failure")
		}
	}
	if n := srv.mFailed.Value(); n != 1+followers {
		t.Errorf("jobs_failed_total = %d, want %d (leader + fanned-out followers)", n, 1+followers)
	}
}

// TestCoalesceGroupCap: with a cap of 2 members a full flight stops
// accepting members; the third identical job leads a second flight on
// its own session instead of joining.
func TestCoalesceGroupCap(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 2})
	srv.coalesceMax = 2
	image := img.SpherePhantom(8)
	const key = "coalesce-cap"

	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	tune := func(*core.Config) {
		entered <- struct{}{}
		<-gate
	}
	outc := make(chan jobOutcome, 3)
	run := func(tn func(*core.Config)) {
		go func() {
			sr, err := srv.MeshSnapshot(context.Background(), key, "", image, tn)
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
	if n := srv.pool.Stats().Checkouts; n != 2 {
		t.Errorf("pool checkouts = %d, want 2 (two leaders)", n)
	}
	if n := srv.mRunSeconds.Count(); n != 2 {
		t.Errorf("run count = %d, want 2", n)
	}
}

// TestCoalesceVariantsDoNotShare: same image, different quality knobs
// → different flights (a coalesced waiter must never receive a mesh
// built with someone else's parameters).
func TestCoalesceVariantsDoNotShare(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 2})
	image := img.SpherePhantom(8)
	const key = "coalesce-variant"

	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	tune := func(*core.Config) {
		entered <- struct{}{}
		<-gate
	}
	outc := make(chan jobOutcome, 2)
	go func() {
		sr, err := srv.MeshSnapshot(context.Background(), key, "d=2", image, tune)
		outc <- jobOutcome{sr, err}
	}()
	<-entered
	go func() {
		sr, err := srv.MeshSnapshot(context.Background(), key, "d=3", image, tune)
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
	type reply struct {
		code int
		out  []byte
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			code, out := post(t, client, ts.URL+"/v1/mesh", body)
			replies <- reply{code, out}
		}()
	}
	waitMembers(t, srv, key, n)
	lease.Release()

	var first []byte
	for i := 0; i < n; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("status %d: %s", r.code, r.out)
		}
		if first == nil {
			first = r.out
		} else if !bytes.Equal(first, r.out) {
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
			code, out := post(t, client, ts.URL+"/v1/mesh", body)
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, out)
				return
			}
			mu.Lock()
			bodies = append(bodies, out)
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

// TestCoalesceLeaderPanic: a leader whose run panics (here: inside
// the tune hook, which executes unguarded in the engine) must not
// strand its followers — the panic is recovered into a flight error
// and fanned out, and the leader's session is replaced.
func TestCoalesceLeaderPanic(t *testing.T) {
	srv := newBareServer(t, Config{PoolSize: 1})
	srv.breakers.threshold = breakerNever
	image := img.SpherePhantom(8)
	const key = "coalesce-leader-panic"

	gate := make(chan struct{})
	entered := make(chan struct{})
	leaderc := make(chan jobOutcome, 1)
	go func() {
		sr, err := srv.MeshSnapshot(context.Background(), key, "", image, func(*core.Config) {
			close(entered)
			<-gate
			panic("injected tune panic")
		})
		leaderc <- jobOutcome{sr, err}
	}()
	<-entered

	const followers = 2
	fc := make(chan jobOutcome, followers)
	for i := 0; i < followers; i++ {
		go func() {
			sr, err := srv.MeshSnapshot(context.Background(), key, "", image, nil)
			fc <- jobOutcome{sr, err}
		}()
	}
	waitMembers(t, srv, key, 1+followers)
	close(gate)

	leader := <-leaderc
	if leader.err == nil || !strings.Contains(leader.err.Error(), "panicked") {
		t.Fatalf("panicked leader returned %v, want a panic-converted error", leader.err)
	}
	for i := 0; i < followers; i++ {
		select {
		case f := <-fc:
			if f.err == nil {
				t.Error("follower of a panicked leader returned no error")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("follower hung after leader panic")
		}
	}
	if n := srv.mFailed.Value(); n != 1+followers {
		t.Errorf("jobs_failed_total = %d, want %d", n, 1+followers)
	}

	// The panic marked the session bad: replaced at release.
	if q := srv.pool.Stats().Quarantines; q != 1 {
		t.Errorf("quarantines = %d, want 1 (panicked session must not return to the pool)", q)
	}
}
