package serve

import (
	"bytes"
	"context"
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

// coalesced is the movement of a leader and n followers.
func coalesced(n int) map[string]int64 {
	return map[string]int64{"accepted": int64(n + 1), "completed": int64(n + 1), "coalesced": int64(n), "recorded": 1, "leases": 1}
}

// TestCoalesceFanOut is the single-flight contract at the walk: three
// followers join a queued leader's flight, and one lease and one run
// fan the identical snapshot out to all four, the followers' summaries
// marked Coalesced and agreeing with the leader's run.
func TestCoalesceFanOut(t *testing.T) {
	runEndings(t, endingRow{name: "three followers share the leader's snapshot", moved: coalesced(3),
		act: func(t *testing.T, r *endingRig) answer {
			out := make(chan jobOutcome, 4)
			lease := r.hold()
			defer lease.Release() // a failed wait must not strand the flight
			for members := 1; members <= 4; members++ {
				go func() {
					sr, err := r.srv.walk(context.Background(), &job{key: wire.ImageKey(r.base), body: r.base})
					out <- jobOutcome{sr, err}
				}()
				waitMembers(t, r.srv, r.flight(), members)
			}
			lease.Release()
			var leader *SnapshotResult
			var followers []*SnapshotResult
			for range 4 {
				o := <-out
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.sr.Summary.Coalesced {
					followers = append(followers, o.sr)
				} else {
					leader = o.sr
				}
			}
			for _, f := range followers {
				if leader == nil || f.Snapshot != leader.Snapshot || f.Summary.Run.Elements != leader.Summary.Run.Elements {
					t.Error("a follower got another snapshot or run summary than its leader")
				}
			}
			if len(followers) != 3 {
				t.Errorf("%d followers marked Coalesced, want 3", len(followers))
			}
			return answer{}
		}})
}

// TestCoalesceHTTP: four identical concurrent POSTs while the only
// session is held get one run and four byte-identical bodies.
func TestCoalesceHTTP(t *testing.T) {
	runEndings(t, endingRow{name: "four identical POSTs", want: servedVTK, moved: coalesced(3),
		act: func(t *testing.T, r *endingRig) answer {
			lease := r.hold()
			defer lease.Release() // a failed wait must not strand the flight
			var waits []func() answer
			for members := 1; members <= 4; members++ {
				waits = append(waits, r.joining(members, func() answer { return r.mesh("") }))
			}
			lease.Release()
			first := waits[0]()
			for _, wait := range waits[1:] {
				if !bytes.Equal(wait().body, first.body) {
					t.Error("coalesced answers are not byte-identical")
				}
			}
			return first
		}})
}

// TestCoalesceSlowSession: the SlowSession fault stalls the leader
// inside its lease while a follower waits on the flight: the stall
// shows in the lease histogram, and the follower still gets the mesh.
func TestCoalesceSlowSession(t *testing.T) {
	runEndings(t, endingRow{name: "a stalled leader", want: servedVTK, moved: coalesced(1),
		act: func(t *testing.T, r *endingRig) answer {
			defer faultinject.Enable(faultinject.New(faultinject.Config{
				Rates: map[faultinject.Point]float64{faultinject.SlowSession: 1},
				Delay: 150 * time.Millisecond,
			}))()
			a := r.withLeader(ending{200, ""}, r.leader, r.follower)
			if occ := r.srv.mLeaseSeconds.Snapshot(); occ.Sum < 0.14 {
				t.Errorf("lease occupancy sum %v; want the one lease >= 140ms", occ.Sum)
			}
			return a
		}})
}

// TestCoalesceVariantsDoNotShare: the same image under different
// quality knobs makes different flights: a coalesced waiter never gets
// a mesh built with someone else's parameters.
func TestCoalesceVariantsDoNotShare(t *testing.T) {
	runEndings(t, endingRow{name: "two variants, two runs", pool: 2,
		moved: mv("accepted", 2, "completed", 2, "recorded", 2, "leases", 2),
		act: func(t *testing.T, r *endingRig) answer {
			gate, entered := make(chan struct{}), make(chan struct{}, 2)
			done := make(chan error, 2)
			for _, v := range []string{"d=2", "d=3"} {
				go func() {
					_, err := r.srv.walk(context.Background(), &job{key: wire.ImageKey(r.base), variant: v, body: r.base,
						tune: func(*core.Config) { entered <- struct{}{}; <-gate }})
					done <- err
				}()
				select {
				case <-entered: // each variant runs its own tune: it did not coalesce
				case <-time.After(10 * time.Second):
					close(gate)
					t.Fatalf("variant %s never ran its own tune", v)
				}
			}
			close(gate)
			for range 2 {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			return answer{}
		}})
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
