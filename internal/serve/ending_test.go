package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/wire"
)

// ending is how one request was answered: its status and envelope code
// ("" below 400).
type ending struct {
	status int
	code   string
}

// endingRig is one row's server: a pool of one over a fresh result cache.
type endingRig struct {
	t    *testing.T
	srv  *Server
	ts   *httptest.Server
	base []byte // the row's image
	etag string // its entity tag, once meshOK has meshed it
}

func (r *endingRig) send(method, path, ctype string, body []byte, hdr ...string) answer {
	return send(r.t, r.ts.Client(), method, r.ts.URL+path, ctype, body, hdr...)
}

// mesh posts the base image to /v1/mesh.
func (r *endingRig) mesh(query string, hdr ...string) answer {
	return r.send("POST", "/v1/mesh"+query, octet, r.base, hdr...)
}

// meshOK is a setup step that must succeed; it keeps the entity tag.
func (r *endingRig) meshOK() {
	r.t.Helper()
	_, r.etag = meshOK(r.t, r.ts.Client(), r.ts.URL, "", r.base)
}

func (r *endingRig) simulate(spec string) answer {
	body, ctype := multipartBody(r.t, map[string][]byte{"spec": []byte(spec), "image": r.base})
	return r.send("POST", "/v1/simulate", ctype, body)
}

// direct serves one request in-process under ctx: how a row cancels
// a request, which a client cannot hand the server.
func (r *endingRig) direct(ctx context.Context, path, ctype string, body []byte) answer {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, req)
	return read(r.t, rec.Result())
}

// hold checks out the pool's only session.
func (r *endingRig) hold() *Lease {
	lease, err := r.srv.Pool().Checkout(context.Background())
	if err != nil {
		r.t.Fatal(err)
	}
	return lease
}

// withLeader holds the pool's only session and starts lead, a job for
// the base image that queues with its flight open; follow runs then,
// and the wait it returns is called once the session is let go and the
// leader has answered want.
func (r *endingRig) withLeader(want ending, lead func() ending, follow func() (wait func() answer)) answer {
	lease := r.hold()
	leader := make(chan ending, 1)
	go func() { leader <- lead() }()
	waitMembers(r.t, r.srv, wire.ImageKey(r.base), 1)
	wait := follow()
	lease.Release()
	if l := <-leader; l != want {
		r.t.Errorf("leader answered %+v, want %+v", l, want)
	}
	return wait()
}

// leader is withLeader's lead for a request like the follower's.
func (r *endingRig) leader() ending { return r.mesh("").ending() }

// follower posts the base image in the background and returns once it
// has joined the open flight.
func (r *endingRig) follower() func() answer {
	c := make(chan answer, 1)
	go func() { c <- r.mesh("") }()
	waitMembers(r.t, r.srv, wire.ImageKey(r.base), 2)
	return func() answer { return <-c }
}

// withFaults runs fn with point armed to fire on each of its next
// fires chances.
func withFaults(point faultinject.Point, fires int64, fn func() answer) answer {
	defer faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{point: 1},
		MaxFires: map[faultinject.Point]int64{point: fires},
	}))()
	return fn()
}

// sessionPtr reads the session currently installed in free slot i of
// an idle pool.
func sessionPtr(p *Pool, i int) *core.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free[i].s
}

// replaced checks, when the returned func runs, that the pool's only
// slot got a new session since the call.
func replaced(t *testing.T, r *endingRig) func() {
	old := sessionPtr(r.srv.pool, 0)
	return func() {
		if sessionPtr(r.srv.pool, 0) == old {
			t.Error("the slot still holds the session whose run failed")
		}
	}
}

// engineAbort posts the base image with one engine panic injected past
// the bootstrap, which aborts the run.
func (r *endingRig) engineAbort() answer {
	defer faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{faultinject.WorkerPanic: 1},
		After:    map[faultinject.Point]int64{faultinject.WorkerPanic: 20}, // clear the bootstrap
		MaxFires: map[faultinject.Point]int64{faultinject.WorkerPanic: 1},
	}))()
	return r.mesh("")
}

// newEndingRig serves a pool of one over a fresh result cache; its base
// image is a scale-6 phantom.
func newEndingRig(t *testing.T) *endingRig {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	return &endingRig{t: t, srv: srv, ts: ts, base: nrrdBody(t, 6)}
}

// TestEveryEndingBooksOnce: every way a request can end that the unit
// harness triggers deterministically moves every job-ledger series by
// exactly what it should — nothing booked twice, nothing missed (see
// wantMoved) — and is answered with its envelope code. A row's act
// checks what only its ending shows.
func TestEveryEndingBooksOnce(t *testing.T) {
	const okSpec = `{"format": "summary", "dirichlet": [{"value": 0}], "source": {"uniform": 1}}`
	const stale = `"0000000000000000-vtk"`
	served := map[string]int64{"accepted": 1, "completed": 1, "recorded": 1}
	meshFirst := func(t *testing.T, r *endingRig) { r.meshOK() }
	// A scale-6 mesh has no interior vertex for a solve to free.
	solvable := func(t *testing.T, r *endingRig) { r.base = nrrdBody(t, 16) }

	rows := []struct {
		name  string
		setup func(t *testing.T, r *endingRig)
		act   func(t *testing.T, r *endingRig) answer
		want  ending
		moved map[string]int64
	}{
		{"leader run", nil,
			func(t *testing.T, r *endingRig) answer { return r.mesh("") },
			ending{200, ""}, served},
		// A stale validator is answered in full, with one store lookup.
		{"disk hit", meshFirst,
			func(t *testing.T, r *endingRig) answer { return r.mesh("", "If-None-Match", stale) },
			ending{200, ""}, map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "recorded": 1,
				"store_hits": 1, "mem:entity,hit": 0, "mem:entity,miss": 1}},
		{"memory hit", func(t *testing.T, r *endingRig) { r.meshOK(); r.meshOK() },
			func(t *testing.T, r *endingRig) answer { return r.mesh("", "If-None-Match", stale) },
			ending{200, ""}, map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "recorded": 1,
				"store_hits": 1, "mem:entity,hit": 1, "mem:entity,miss": 0}},
		// The hit needs neither the session nor the decoded upload.
		{"a hit while the only session is held", meshFirst,
			func(t *testing.T, r *endingRig) answer {
				defer r.hold().Release()
				a := r.mesh("?timeout=2s")
				if tag := a.Header.Get("ETag"); tag != r.etag {
					t.Errorf("ETag %q across the hit, want %q", tag, r.etag)
				}
				return a
			},
			ending{200, ""}, map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "recorded": 1,
				"store_hits": 1, "mem:image,miss": 0, "mem:image,hit": 0}},
		// From the index alone: no run, no blob read, no body.
		{"conditional POST /v1/mesh", meshFirst,
			func(t *testing.T, r *endingRig) answer {
				a := r.mesh("", "If-None-Match", r.etag)
				if tag := a.Header.Get("ETag"); tag != r.etag || len(a.body) != 0 {
					t.Errorf("304 ETag %q and %d body bytes, want %q and none", tag, len(a.body), r.etag)
				}
				return a
			},
			ending{304, ""}, map[string]int64{"store_hits": 1, "mem:entity,miss": 0}},
		{"coalesced follower and its leader", nil,
			func(t *testing.T, r *endingRig) answer {
				return r.withLeader(ending{200, ""}, r.leader, r.follower)
			},
			ending{200, ""}, map[string]int64{"accepted": 2, "completed": 2, "coalesced": 1, "recorded": 1}},
		{"follower detached at its deadline, and its leader", nil,
			func(t *testing.T, r *endingRig) answer {
				return r.withLeader(ending{200, ""}, r.leader, func() func() answer {
					a := r.mesh("?timeout=100ms")
					return func() answer { return a }
				})
			},
			ending{503, wire.CodeDeadline}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "rejected:deadline": 1}},
		{"a leader's failed run fans out to its followers", nil,
			func(t *testing.T, r *endingRig) answer {
				return withFaults(faultinject.RunPoisoned, 1, func() answer {
					return r.withLeader(ending{500, wire.CodeInternal}, r.leader, r.follower)
				})
			},
			ending{500, wire.CodeInternal}, map[string]int64{"accepted": 2, "failed": 2, "coalesced": 1, "quarantined": 1}},
		// A tune hook runs inside the lease, unguarded by the engine: a
		// panic there reaches guardedRun's recover.
		{"a leader's panic fans out to its followers", nil,
			func(t *testing.T, r *endingRig) answer {
				panicking := func() ending {
					_, err := r.srv.walk(context.Background(), &job{key: wire.ImageKey(r.base), body: r.base,
						tune: func(*core.Config) { panic("injected tune panic") }})
					if err == nil || !strings.Contains(err.Error(), "panicked") {
						t.Errorf("panicked leader returned %v, want a panic-converted error", err)
					}
					status, code := classify(err)
					return ending{status, code}
				}
				return r.withLeader(ending{500, wire.CodeInternal}, panicking, r.follower)
			},
			ending{500, wire.CodeInternal}, map[string]int64{"accepted": 2, "failed": 2, "coalesced": 1, "quarantined": 1}},
		// The client goes away while the job waits for a session: 499,
		// and no Retry-After for a client that is gone.
		{"canceled while queued", nil,
			func(t *testing.T, r *endingRig) answer {
				defer r.hold().Release()
				ctx, cancel := context.WithCancel(context.Background())
				c := make(chan answer, 1)
				go func() { c <- r.direct(ctx, "/v1/mesh", octet, r.base) }()
				waitWaiters(t, r.srv.pool, 1)
				cancel()
				a := <-c
				if ra := a.Header.Get("Retry-After"); ra != "" {
					t.Errorf("a canceled request carries Retry-After %q", ra)
				}
				return a
			},
			ending{wire.StatusClientClosedRequest, wire.CodeCanceled}, map[string]int64{"rejected:canceled": 1}},
		{"canceled before it queued", nil,
			func(t *testing.T, r *endingRig) answer {
				defer r.hold().Release()
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return r.direct(ctx, "/v1/mesh", octet, r.base)
			},
			ending{wire.StatusClientClosedRequest, wire.CodeCanceled}, map[string]int64{"rejected:canceled": 1}},
		// A deadline is a capacity signal: it invites a retry.
		{"queued past the deadline", nil,
			func(t *testing.T, r *endingRig) answer {
				defer r.hold().Release()
				a := r.mesh("?timeout=50ms")
				if a.Header.Get("Retry-After") == "" {
					t.Error("deadline 503 carries no Retry-After")
				}
				return a
			},
			ending{503, wire.CodeDeadline}, map[string]int64{"rejected:deadline": 1}},
		{"draining", func(t *testing.T, r *endingRig) { r.srv.AnnounceDrain(0) },
			func(t *testing.T, r *endingRig) answer { return r.mesh("") },
			ending{503, wire.CodeDraining}, map[string]int64{"rejected:draining": 1}},
		// Under brownout, a wait the deepest tier could not beat is refused
		// up front: here ten-second leases against a one-second deadline.
		{"refused as hopeless under brownout",
			func(t *testing.T, r *endingRig) {
				for i := 0; i < 10; i++ {
					r.srv.mLeaseSeconds.Observe(10)
				}
			},
			func(t *testing.T, r *endingRig) answer {
				a := r.mesh("?timeout=1s")
				if a.Header.Get("Retry-After") == "" {
					t.Error("an overload 503 carries no Retry-After")
				}
				return a
			},
			ending{503, wire.CodeOverloaded}, map[string]int64{"rejected:overloaded": 1}},
		{"injected queue full", nil,
			func(t *testing.T, r *endingRig) answer {
				return withFaults(faultinject.QueueFull, 1, func() answer { return r.mesh("") })
			},
			ending{429, wire.CodeQueueFull}, map[string]int64{"rejected:queue_full": 1}},
		{"a key whose last three runs failed is run again",
			func(t *testing.T, r *endingRig) {
				withFaults(faultinject.RunPoisoned, 3, func() answer {
					for i := 0; i < 3; i++ {
						if e := r.mesh("").ending(); e != (ending{500, wire.CodeInternal}) {
							t.Fatalf("poisoned run %d answered %+v", i, e)
						}
					}
					return answer{}
				})
			},
			func(t *testing.T, r *endingRig) answer { return r.mesh("") },
			ending{200, ""}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "quarantined": 0}},
		{"leader's deadline ends mid-run", nil,
			func(t *testing.T, r *endingRig) answer {
				// The session stalls past the job's deadline between
				// checkout and run: the run starts on an ended context.
				defer faultinject.Enable(faultinject.New(faultinject.Config{
					Rates:    map[faultinject.Point]float64{faultinject.SlowSession: 1},
					MaxFires: map[faultinject.Point]int64{faultinject.SlowSession: 1},
					Delay:    200 * time.Millisecond,
				}))()
				a := r.mesh("?timeout=50ms")
				if a.Header.Get("Retry-After") == "" {
					t.Error("deadline 503 carries no Retry-After")
				}
				return a
			},
			// A session whose run its deadline cut is healthy and stays.
			ending{503, wire.CodeDeadline}, map[string]int64{"accepted": 1, "failed": 1, "deadline_aborts": 1, "quarantined": 0}},
		{"cache-only miss", nil,
			func(t *testing.T, r *endingRig) answer {
				a := r.send("GET", "/v1/cache/"+wire.ImageKey(r.base), "", nil)
				if a.reason == "" {
					t.Error("a cache-only miss gives no reason")
				}
				return a
			},
			ending{404, wire.CodeCacheMiss}, map[string]int64{"cache_only_miss": 1}},
		{"undecodable upload", nil,
			func(t *testing.T, r *endingRig) answer {
				return r.send("POST", "/v1/mesh", octet, []byte("not an NRRD image"))
			},
			ending{400, wire.CodeBadRequest}, map[string]int64{}},
		{"poisoned run", nil,
			func(t *testing.T, r *endingRig) answer {
				return withFaults(faultinject.RunPoisoned, 1, func() answer { return r.mesh("") })
			},
			ending{500, wire.CodeInternal}, map[string]int64{"accepted": 1, "failed": 1, "quarantined": 1}},
		// A panic in the engine aborts the run; its partial mesh is not
		// answered (see TestAbortedSessionQuarantined and
		// TestPanickedRunNotCached).
		{"engine abort", func(t *testing.T, r *endingRig) { r.base = nrrdBody(t, 12) },
			func(t *testing.T, r *endingRig) answer {
				a := r.engineAbort()
				if !strings.Contains(a.reason, "run aborted") {
					t.Errorf("reason %q, want a run abort", a.reason)
				}
				return a
			},
			ending{500, wire.CodeInternal}, map[string]int64{"accepted": 1, "failed": 1, "quarantined": 1, "store_writes": 0}},
		// A refused write caches nothing, so the repeat runs again.
		{"every write refused", nil,
			func(t *testing.T, r *endingRig) answer {
				return withFaults(faultinject.CacheWriteFail, 2, func() answer {
					if e := r.mesh("").ending(); e != (ending{200, ""}) {
						t.Errorf("first ask under a refusing disk answered %+v", e)
					}
					return r.mesh("")
				})
			},
			ending{200, ""}, map[string]int64{"accepted": 2, "completed": 2, "recorded": 2, "write_errors": 2, "store_writes": 0}},
		{"cache-only hit, GET /v1/cache", meshFirst,
			func(t *testing.T, r *endingRig) answer {
				a := r.send("GET", "/v1/cache/"+wire.ImageKey(r.base), "", nil)
				if got := a.Header.Get(wire.CacheOnlyHeader); got != "hit" || a.Header.Get("ETag") != r.etag {
					t.Errorf("%s %q, ETag %q: want a hit under %q", wire.CacheOnlyHeader, got, a.Header.Get("ETag"), r.etag)
				}
				return a
			},
			ending{200, ""}, map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "cache_only_served": 1, "recorded": 1}},
		{"cache-only 304, GET /v1/cache", meshFirst,
			func(t *testing.T, r *endingRig) answer {
				return r.send("GET", "/v1/cache/"+wire.ImageKey(r.base), "", nil, "If-None-Match", r.etag)
			},
			ending{304, ""}, map[string]int64{"cache_only_served": 1}},
		{"simulate ok", solvable,
			func(t *testing.T, r *endingRig) answer { return r.simulate(okSpec) },
			ending{200, ""}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "simulate:ok": 1}},
		// Boundary conditions that constrain no vertex of the mesh are
		// the client's fault, found after the mesh stage.
		{"simulate bad_bc", solvable,
			func(t *testing.T, r *endingRig) answer {
				return r.simulate(`{"dirichlet": [{"sphere": {"center": [1000, 1000, 1000], "r": 1}, "value": 0}]}`)
			},
			ending{400, wire.CodeBadBC}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "simulate:bad_bc": 1}},
		{"simulate solve_failed, no interior vertex", nil,
			func(t *testing.T, r *endingRig) answer { return r.simulate(okSpec) },
			ending{500, wire.CodeSolveFailed}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "simulate:solve_failed": 1}},
		{"simulate mesh_failed, draining", func(t *testing.T, r *endingRig) { r.srv.AnnounceDrain(0) },
			func(t *testing.T, r *endingRig) answer { return r.simulate(okSpec) },
			ending{503, wire.CodeDraining}, map[string]int64{"rejected:draining": 1, "simulate:mesh_failed": 1}},
		{"simulate bad_request, no spec part", nil,
			func(t *testing.T, r *endingRig) answer {
				body, ctype := multipartBody(t, map[string][]byte{"image": r.base})
				return r.send("POST", "/v1/simulate", ctype, body)
			},
			ending{400, wire.CodeBadRequest}, map[string]int64{"simulate:bad_request": 1}},
		// The mesh stage is a cache hit, so the cancellation is the
		// solve's alone.
		{"simulate canceled, mesh from cache", func(t *testing.T, r *endingRig) { solvable(t, r); r.meshOK() },
			func(t *testing.T, r *endingRig) answer {
				body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(okSpec), "image": r.base})
				ctx, cancel := context.WithCancel(context.Background())
				cancel() // the client is gone before the handler runs
				return r.direct(ctx, "/v1/simulate", ctype, body)
			},
			ending{wire.StatusClientClosedRequest, wire.CodeCanceled},
			map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "recorded": 1, "simulate:canceled": 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newEndingRig(t)
			if row.setup != nil {
				row.setup(t, r)
			}
			before := ledger(r.srv)
			got := row.act(t, r)
			after := ledger(r.srv)
			if e := got.ending(); e != row.want {
				t.Errorf("answered %+v, want %+v", e, row.want)
			}
			wantMoved(t, moved(before, after), row.moved)
			if after["accepted"] != after["completed"]+after["failed"] {
				t.Errorf("accepted %d != completed %d + failed %d", after["accepted"], after["completed"], after["failed"])
			}
			// What the benchmark's traced pass reads of Stats is the series.
			if st := r.srv.Stats(); st.Accepted != after["accepted"] || st.Coalesced != after["coalesced"] || st.CacheServed != after["cache_served"] {
				t.Errorf("Stats reads accepted %d, coalesced %d, cache-served %d; the series %d, %d, %d",
					st.Accepted, st.Coalesced, st.CacheServed, after["accepted"], after["coalesced"], after["cache_served"])
			}
		})
	}
}

// TestServerDrain: liveness is not readiness. A drained node still
// answers /healthz, so an orchestrator does not kill it mid-drain, but
// /readyz turns new traffic away.
func TestServerDrain(t *testing.T) {
	r := newEndingRig(t)
	r.meshOK()
	if a := r.send("GET", "/readyz", "", nil); a.StatusCode != http.StatusOK {
		t.Errorf("readyz before the drain: %d, want 200", a.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for path, want := range map[string]int{"/healthz": http.StatusOK, "/readyz": http.StatusServiceUnavailable} {
		if a := r.send("GET", path, "", nil); a.StatusCode != want {
			t.Errorf("%s while drained: %d, want %d", path, a.StatusCode, want)
		}
	}
}

// TestErrorEnvelope: an error answer is the JSON envelope, and a
// capacity rejection mirrors its Retry-After header into it.
func TestErrorEnvelope(t *testing.T) {
	r := newEndingRig(t)
	a := withFaults(faultinject.QueueFull, 1, func() answer { return r.mesh("") })
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(a.body, &env); err != nil || env.Error.Code != wire.CodeQueueFull || env.Error.Reason == "" {
		t.Fatalf("%d answer %q is not the queue_full envelope with a reason", a.StatusCode, a.body)
	}
	if ct := a.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error Content-Type %q", ct)
	}
	if ra := a.Header.Get("Retry-After"); ra == "" || ra != strconv.Itoa(env.Error.RetryAfterS) {
		t.Errorf("Retry-After %q, envelope retry_after_s %d: want one nonzero value", ra, env.Error.RetryAfterS)
	}
}

// TestFailedRunQuarantined: one failed run is enough. A single poisoned
// run gets its session replaced, and the next run on the slot is clean.
func TestFailedRunQuarantined(t *testing.T) {
	r := newEndingRig(t)
	check := replaced(t, r)
	withFaults(faultinject.RunPoisoned, 1, func() answer { return r.mesh("") })
	check()
	r.meshOK()
	if q := r.srv.pool.Stats().Quarantines; q != 1 {
		t.Errorf("quarantines = %d after a failed and a clean run, want 1", q)
	}
}

// TestAbortedSessionQuarantined: an engine abort replaces the slot's
// session before the job returns, so the pool never hands that session
// out uninspected, and the new session serves the next job.
func TestAbortedSessionQuarantined(t *testing.T) {
	r := newEndingRig(t)
	r.base = nrrdBody(t, 12)
	check := replaced(t, r)
	if e := r.engineAbort().ending(); e != (ending{500, wire.CodeInternal}) {
		t.Fatalf("the aborted run answered %+v", e)
	}
	check()
	r.meshOK()
}

// TestPanickedRunNotCached: an aborted run's partial mesh is not cached;
// the next identical request runs afresh and is cached.
func TestPanickedRunNotCached(t *testing.T) {
	r := newEndingRig(t)
	r.base = nrrdBody(t, 12)
	key := wire.ImageKey(r.base)
	r.engineAbort()
	if cached(r.srv.cache, key, "") {
		t.Fatal("the aborted run's partial mesh was cached")
	}
	runs := r.srv.mRunSeconds.Count()
	r.meshOK()
	if n := r.srv.mRunSeconds.Count() - runs; n != 1 {
		t.Errorf("the retry made %d runs, want 1", n)
	}
	if !cached(r.srv.cache, key, "") {
		t.Error("the retry's mesh was not cached")
	}
}

// TestCacheOnly304SameOnBothSurfaces: a cache-only conditional that
// validates, on GET /v1/cache (the one cache-only surface), is a bare
// 304 stamped as a cache-only hit under the entry's ETag.
func TestCacheOnly304SameOnBothSurfaces(t *testing.T) {
	r := newEndingRig(t)
	r.meshOK()
	a := r.send("GET", "/v1/cache/"+wire.ImageKey(r.base), "", nil, "If-None-Match", r.etag)
	if got := a.Header.Get(wire.CacheOnlyHeader); a.StatusCode != http.StatusNotModified || got != "hit" ||
		a.Header.Get("ETag") != r.etag || len(a.body) != 0 {
		t.Errorf("%d, %s %q, ETag %q, %d body bytes: want a bare 304 hit under %q",
			a.StatusCode, wire.CacheOnlyHeader, got, a.Header.Get("ETag"), len(a.body), r.etag)
	}
}
