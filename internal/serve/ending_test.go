package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/wire"
)

// ending is how one request was answered: its status and envelope code
// ("" below 400).
type ending struct {
	status int
	code   string
}

// pin is everything a client or the router can observe of one answer.
// Every ending row pins all of it, so a rewrite of the request path
// cannot change a status, an envelope, a header or a body byte unseen.
type pin struct {
	status    int
	code      string // envelope code ("" on a 2xx/304)
	etag      string
	ctype     string
	cacheOnly string // X-Pi2md-Cache-Only
	brownout  string // X-Pi2md-Brownout
	retry     string // Retry-After
	sha       string // hex SHA-256 of the body
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// solveTime is the one byte range of an answer no pin can hold: a
// simulate summary's wall time. untimed reads it as 0.
var solveTime = regexp.MustCompile(`"solve_seconds": [0-9.e+-]+`)

func untimed(b []byte) []byte { return solveTime.ReplaceAll(b, []byte(`"solve_seconds": 0`)) }

// simulated is a /v1/simulate 200 whose untimed body hashes to sum.
func simulated(ctype, sum string) func(*endingRig) pin {
	return func(*endingRig) pin { return pin{status: 200, ctype: ctype, sha: sum} }
}

// refused is an error answer: the JSON envelope with code and reason,
// and a capacity rejection's Retry-After mirrored into it.
func refused(status int, code, reason string, retry int) func(*endingRig) pin {
	body, _ := json.Marshal(wire.ErrorEnvelope{Error: wire.ErrorBody{Code: code, Reason: reason, RetryAfterS: retry}})
	p := pin{status: status, code: code, ctype: "application/json", sha: sha(append(body, '\n'))}
	if retry > 0 {
		p.retry = strconv.Itoa(retry)
	}
	return func(*endingRig) pin { return p }
}

// deadline is the 503 of a job whose deadline expired while it waited.
func deadline(cause string) func(*endingRig) pin {
	return refused(503, wire.CodeDeadline, "serve: deadline expired before a session was available: "+cause, 1)
}

// cacheMiss is the 404 of a cache-only read of the base image in variant.
func cacheMiss(variant string) func(*endingRig) pin {
	return func(r *endingRig) pin {
		reason := fmt.Sprintf("no cached result for image %.16s… variant %q", wire.ImageKey(r.base), variant)
		return refused(404, wire.CodeCacheMiss, reason, 0)(r)
	}
}

func badRequest400(reason string) func(*endingRig) pin {
	return refused(400, wire.CodeBadRequest, reason, 0)
}

// served is a 200 of the base image's entity in variant and format:
// exactly what a cache-only read of the pair answers once the row has
// run, that read's own stamp aside.
func served(variant, format string) func(*endingRig) pin {
	return func(r *endingRig) pin {
		a := r.entity(variant, format)
		return pin{status: 200, etag: a.Header.Get("ETag"), ctype: a.Header.Get("Content-Type"), sha: sha(a.body)}
	}
}

var servedVTK = served("", "vtk")

// probed is served as GET /v1/cache answers it.
func probed(variant, format string) func(*endingRig) pin {
	return func(r *endingRig) pin {
		p := served(variant, format)(r)
		p.cacheOnly = "hit"
		return p
	}
}

// unchanged is a bare 304 under the base image's VTK entity tag.
func unchanged(cacheOnly string) func(*endingRig) pin {
	return func(r *endingRig) pin {
		return pin{status: 304, etag: r.entity("", "vtk").Header.Get("ETag"), cacheOnly: cacheOnly, sha: sha(nil)}
	}
}

// doPin checks an answer against want, and that it crossed the wire
// length-framed: an exact Content-Length, no chunking, and a 304 with
// neither body nor length.
func doPin(t *testing.T, a answer, want pin) {
	t.Helper()
	if got := pinOf(a); got != want {
		t.Errorf("answered\n %+v\nwant\n %+v\nbody %.300q", got, want, a.body)
	}
	if a.direct {
		return
	}
	cl, wantCL := a.Header.Get("Content-Length"), strconv.Itoa(len(a.body))
	if a.StatusCode == http.StatusNotModified {
		wantCL = ""
	}
	if cl != wantCL || len(a.TransferEncoding) != 0 {
		t.Errorf("Content-Length %q, Transfer-Encoding %v for a %d byte body: want %q and none", cl, a.TransferEncoding, len(a.body), wantCL)
	}
}

func pinOf(a answer) pin {
	return pin{status: a.StatusCode, code: a.code, etag: a.Header.Get("ETag"), ctype: a.Header.Get("Content-Type"),
		cacheOnly: a.Header.Get(wire.CacheOnlyHeader), brownout: a.Header.Get(BrownoutHeader),
		retry: a.Header.Get("Retry-After"), sha: sha(untimed(a.body))}
}

// endingRig is one row's server: a pool over a fresh result cache.
type endingRig struct {
	t    *testing.T
	srv  *Server
	ts   *httptest.Server
	base []byte // the row's image
	etag string // its entity tag, once meshOK has meshed it
	ref  answer // what a row's setup kept to compare against
	dir  string // the result cache's directory
	// variant is the one the base image's flight is under, for
	// withLeader and joining to wait on.
	variant string
}

// flight is the coalescing key of the base image's flight.
func (r *endingRig) flight() string { return coalesceKey(wire.ImageKey(r.base), r.variant) }

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

// probe is GET /v1/cache for the base image; path is what follows its key.
func (r *endingRig) probe(path string, hdr ...string) answer {
	return r.send("GET", "/v1/cache/"+wire.ImageKey(r.base)+path, "", nil, hdr...)
}

// entity reads the base image's cached entity in variant and format.
func (r *endingRig) entity(variant, format string) answer {
	return r.probe("/" + url.PathEscape(variant) + "?format=" + format)
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
	a := read(r.t, rec.Result())
	a.direct = true
	return a
}

// hold checks out one of the pool's sessions.
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
	defer lease.Release() // a failed wait must not strand the flight
	leader := make(chan ending, 1)
	go func() { leader <- lead() }()
	waitMembers(r.t, r.srv, r.flight(), 1)
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
// has joined the open flight as its second member.
func (r *endingRig) follower() func() answer {
	return r.joining(2, func() answer { return r.mesh("") })
}

// joining runs ask in the background and returns once the base image's
// flight has members members; the func it returns waits for ask's
// answer.
func (r *endingRig) joining(members int, ask func() answer) func() answer {
	c := make(chan answer, 1)
	go func() { c <- ask() }()
	waitMembers(r.t, r.srv, r.flight(), members)
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

// newEndingRig serves a pool of size sessions over a fresh result
// cache, with a Retry-After jitter of ×1; its base image is a scale-6
// phantom.
func newEndingRig(t *testing.T, size int) *endingRig {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{PoolSize: max(size, 1), Cache: openTestCache(t, dir)})
	srv.retryJitter = func() float64 { return 0.5 }
	return &endingRig{t: t, srv: srv, ts: ts, base: nrrdBody(t, 6), dir: dir}
}

// endingRow is one way a request ends: the row's starting state, the
// one request, its answer and what it moved on the exposition.
type endingRow struct {
	name  string
	setup func(t *testing.T, r *endingRig)
	act   func(t *testing.T, r *endingRig) answer
	want  func(r *endingRig) pin // nil: act's answer is checked by act
	moved map[string]int64
	pool  int // sessions; 0 is one
}

// runEndings runs each row on a fresh rig. Every row moves every
// job-ledger series by exactly what it should — nothing booked twice,
// nothing missed (see wantMoved) — leaves no flight open, and is
// answered with its pin. What Stats reports is the series.
func runEndings(t *testing.T, rows ...endingRow) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newEndingRig(t, row.pool)
			if row.setup != nil {
				row.setup(t, r)
			}
			before := ledger(r.srv)
			got := row.act(t, r)
			after := ledger(r.srv)
			wantMoved(t, moved(before, after), row.moved)
			if after["accepted"] != after["completed"]+after["failed"] {
				t.Errorf("accepted %d != completed %d + failed %d", after["accepted"], after["completed"], after["failed"])
			}
			// What the benchmark's traced pass reads of Stats is the series.
			if st := r.srv.Stats(); st.Accepted != after["accepted"] || st.Coalesced != after["coalesced"] || st.CacheServed != after["cache_served"] {
				t.Errorf("Stats reads accepted %d, coalesced %d, cache-served %d; the series %d, %d, %d",
					st.Accepted, st.Coalesced, st.CacheServed, after["accepted"], after["coalesced"], after["cache_served"])
			}
			r.srv.flightMu.Lock()
			open := len(r.srv.flights)
			r.srv.flightMu.Unlock()
			if open != 0 {
				t.Errorf("%d flights open after the row", open)
			}
			if row.want != nil {
				doPin(t, got, row.want(r))
			}
		})
	}
}

const (
	okSpec = `{"format": "summary", "dirichlet": [{"value": 0}], "source": {"uniform": 1}}`
	stale  = `"0000000000000000-vtk"`
)

var (
	served1   = map[string]int64{"accepted": 1, "completed": 1, "recorded": 1}
	cacheHit1 = map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "recorded": 1, "store_hits": 1}
)

func meshFirst(t *testing.T, r *endingRig) { r.meshOK() }

// solvable: a scale-6 mesh has no interior vertex for a solve to free.
func solvable(t *testing.T, r *endingRig) { r.base = nrrdBody(t, 16) }

// capped sets the upload cap to 4 KiB.
func capped(t *testing.T, r *endingRig) { r.srv.cfg.MaxRequestBytes = 4 << 10 }

func post(query string, hdr ...string) func(t *testing.T, r *endingRig) answer {
	return func(t *testing.T, r *endingRig) answer { return r.mesh(query, hdr...) }
}

func postBody(body func(t *testing.T) []byte, query string) func(t *testing.T, r *endingRig) answer {
	return func(t *testing.T, r *endingRig) answer { return r.send("POST", "/v1/mesh"+query, octet, body(t)) }
}

func largeBody(t *testing.T) []byte { return nrrdBody(t, 24) }

// TestEveryEndingBooksOnce: every way a request can end that the unit
// harness triggers deterministically. A row's act checks what only its
// ending shows.
func TestEveryEndingBooksOnce(t *testing.T) {
	canceled := refused(wire.StatusClientClosedRequest, wire.CodeCanceled, "serve: canceled by the caller before a session was available: context canceled", 0)
	poisoned := "serve: run: serve: injected run-poisoned failure"
	drained := func(t *testing.T, r *endingRig) { r.srv.AnnounceDrain(0) }
	simulate := func(spec string) func(t *testing.T, r *endingRig) answer {
		return func(t *testing.T, r *endingRig) answer { return r.simulate(spec) }
	}
	runEndings(t,
		endingRow{name: "leader run", act: post(""), want: servedVTK, moved: served1},
		// A stale validator is answered in full, with one store lookup.
		endingRow{name: "disk hit", setup: meshFirst, act: post("", "If-None-Match", stale), want: servedVTK,
			moved: with(cacheHit1, "mem:entity,hit", 0, "mem:entity,miss", 1)},
		endingRow{name: "memory hit", setup: func(t *testing.T, r *endingRig) { r.meshOK(); r.meshOK() },
			act: post("", "If-None-Match", stale), want: servedVTK, moved: with(cacheHit1, "mem:entity,hit", 1, "mem:entity,miss", 0)},
		// The hit needs neither the session nor the decoded upload.
		endingRow{name: "a hit while the only session is held", setup: meshFirst, act: held(post("?timeout=2s")),
			want: servedVTK, moved: with(cacheHit1, "mem:image,miss", 0, "mem:image,hit", 0)},
		// From the index alone: no run, no blob read, no body.
		endingRow{name: "conditional POST /v1/mesh", setup: meshFirst,
			act:  func(t *testing.T, r *endingRig) answer { return r.mesh("", "If-None-Match", r.etag) },
			want: unchanged(""), moved: mv("store_hits", 1, "mem:entity,miss", 0)},
		endingRow{name: "coalesced follower and its leader", want: servedVTK, moved: mv("accepted", 2, "completed", 2, "coalesced", 1, "recorded", 1),
			act: func(t *testing.T, r *endingRig) answer { return r.withLeader(ending{200, ""}, r.leader, r.follower) }},
		endingRow{name: "follower detached at its deadline, and its leader",
			act: func(t *testing.T, r *endingRig) answer {
				return r.withLeader(ending{200, ""}, r.leader, func() func() answer {
					a := r.mesh("?timeout=100ms")
					return func() answer { return a }
				})
			},
			want: deadline("context deadline exceeded"), moved: mv("accepted", 1, "completed", 1, "recorded", 1, "rejected:deadline", 1)},
		endingRow{name: "a leader's failed run fans out to its followers",
			act: faulted(faultinject.RunPoisoned, 1, func(t *testing.T, r *endingRig) answer {
				return r.withLeader(ending{500, wire.CodeInternal}, r.leader, r.follower)
			}),
			want:  refused(500, wire.CodeInternal, "serve: coalesced run: "+poisoned, 0),
			moved: mv("accepted", 2, "failed", 2, "coalesced", 1, "quarantined", 1)},
		// A tune hook runs inside the lease, unguarded by the engine: a
		// panic there reaches guardedRun's recover.
		endingRow{name: "a leader's panic fans out to its followers",
			act: func(t *testing.T, r *endingRig) answer {
				panicking := func() ending {
					_, err := r.srv.walk(context.Background(), &job{key: wire.ImageKey(r.base), body: r.base,
						tune: func(*core.Config) { panic("injected tune panic") }})
					status, code := classify(err)
					return ending{status, code}
				}
				return r.withLeader(ending{500, wire.CodeInternal}, panicking, r.follower)
			},
			want:  refused(500, wire.CodeInternal, "serve: coalesced run: serve: run: serve: run panicked: injected tune panic", 0),
			moved: mv("accepted", 2, "failed", 2, "coalesced", 1, "quarantined", 1)},
		// The client goes away while the job waits for a session: 499,
		// and no Retry-After for a client that is gone.
		endingRow{name: "canceled while queued", want: canceled, moved: mv("rejected:canceled", 1),
			act: held(func(t *testing.T, r *endingRig) answer {
				ctx, cancel := context.WithCancel(context.Background())
				c := make(chan answer, 1)
				go func() { c <- r.direct(ctx, "/v1/mesh", octet, r.base) }()
				waitWaiters(t, r.srv.pool, 1)
				cancel()
				return <-c
			})},
		endingRow{name: "canceled before it queued", want: canceled, moved: mv("rejected:canceled", 1),
			act: held(func(t *testing.T, r *endingRig) answer { return r.direct(gone(), "/v1/mesh", octet, r.base) })},
		// A deadline is a capacity signal: it invites a retry.
		endingRow{name: "queued past the deadline", act: held(post("?timeout=50ms")),
			want: deadline("context deadline exceeded"), moved: mv("rejected:deadline", 1)},
		endingRow{name: "draining", setup: drained, act: post(""),
			want: refused(503, wire.CodeDraining, "serve: server draining", 0), moved: mv("rejected:draining", 1)},
		// Under brownout, a wait the deepest tier could not beat is refused
		// up front: here ten-second leases against a one-second deadline.
		endingRow{name: "refused as hopeless under brownout",
			setup: func(t *testing.T, r *endingRig) {
				for i := 0; i < 10; i++ {
					r.srv.mLeaseSeconds.Observe(10)
				}
			},
			act:   post("?timeout=1s"),
			want:  refused(503, wire.CodeOverloaded, "serve: overloaded beyond the coarsest brownout tier", 20),
			moved: mv("rejected:overloaded", 1)},
		endingRow{name: "injected queue full", act: faulted(faultinject.QueueFull, 1, post("")),
			want: refused(429, wire.CodeQueueFull, "serve: job queue full", 1), moved: mv("rejected:queue_full", 1)},
		endingRow{name: "a key whose last three runs failed is run again",
			setup: func(t *testing.T, r *endingRig) {
				faulted(faultinject.RunPoisoned, 3, func(t *testing.T, r *endingRig) answer {
					for i := 0; i < 3; i++ {
						if e := r.mesh("").ending(); e != (ending{500, wire.CodeInternal}) {
							t.Fatalf("poisoned run %d answered %+v", i, e)
						}
					}
					return answer{}
				})(t, r)
			},
			act: post(""), want: servedVTK, moved: with(served1, "quarantined", 0)},
		// The session stalls past the job's deadline between checkout and
		// run: the run starts on an ended context. A session whose run its
		// deadline cut is healthy and stays.
		endingRow{name: "leader's deadline ends mid-run",
			act: func(t *testing.T, r *endingRig) answer {
				defer faultinject.Enable(faultinject.New(faultinject.Config{
					Rates:    map[faultinject.Point]float64{faultinject.SlowSession: 1},
					MaxFires: map[faultinject.Point]int64{faultinject.SlowSession: 1},
					Delay:    200 * time.Millisecond,
				}))()
				return r.mesh("?timeout=50ms")
			},
			want:  deadline("run aborted mid-flight: core: run aborted: canceled: context deadline exceeded"),
			moved: mv("accepted", 1, "failed", 1, "deadline_aborts", 1, "quarantined", 0)},
		endingRow{name: "cache-only miss", act: probe(""), want: cacheMiss(""), moved: mv("cache_only_miss", 1)},
		endingRow{name: "undecodable upload", act: postBody(func(*testing.T) []byte { return []byte("not an NRRD image") }, ""),
			want: badRequest400("decoding image: nrrd: reading magic: EOF"), moved: mv()},
		endingRow{name: "poisoned run", act: faulted(faultinject.RunPoisoned, 1, post("")),
			want: refused(500, wire.CodeInternal, poisoned, 0), moved: mv("accepted", 1, "failed", 1, "quarantined", 1)},
		// A panic in the engine aborts the run; its partial mesh is not
		// answered (see TestAbortedSessionQuarantined and
		// TestPanickedRunNotCached).
		endingRow{name: "engine abort", setup: func(t *testing.T, r *endingRig) { r.base = nrrdBody(t, 12) },
			act: func(t *testing.T, r *endingRig) answer { return r.engineAbort() },
			want: refused(500, wire.CodeInternal,
				"serve: run aborted: core: run aborted: thread 0 panicked: faultinject: injected worker-panic (check 21)", 0),
			moved: mv("accepted", 1, "failed", 1, "quarantined", 1, "store_writes", 0)},
		// A refused write caches nothing, so the repeat runs again.
		endingRow{name: "every write refused",
			act: faulted(faultinject.CacheWriteFail, 2, func(t *testing.T, r *endingRig) answer {
				r.ref = r.mesh("")
				return r.mesh("")
			}),
			want:  func(r *endingRig) pin { return pin{status: 200, ctype: "text/vtk", sha: sha(r.ref.body)} },
			moved: mv("accepted", 2, "completed", 2, "recorded", 2, "write_errors", 2, "store_writes", 0)},
		endingRow{name: "cache-only hit, GET /v1/cache", setup: meshFirst, act: probe(""), want: probed("", "vtk"),
			moved: with(cacheHit1, "cache_only_served", 1)},
		endingRow{name: "cache-only 304, GET /v1/cache", setup: meshFirst,
			act:  func(t *testing.T, r *endingRig) answer { return r.probe("", "If-None-Match", r.etag) },
			want: unchanged("hit"), moved: mv("cache_only_served", 1)},
		endingRow{name: "simulate ok", setup: solvable, act: simulate(okSpec),
			want:  simulated("application/json", "fe7a7aa88b116eaed039ffc126dee47de76c8df9fde9ccd8c0a650f6076c91d4"),
			moved: with(served1, "simulate:ok", 1)},
		// Boundary conditions that constrain no vertex of the mesh are
		// the client's fault, found after the mesh stage.
		endingRow{name: "simulate bad_bc", setup: solvable,
			act:   simulate(`{"dirichlet": [{"sphere": {"center": [1000, 1000, 1000], "r": 1}, "value": 0}]}`),
			want:  refused(400, wire.CodeBadBC, "dirichlet clauses constrain no vertex of the meshed surface", 0),
			moved: with(served1, "simulate:bad_bc", 1)},
		endingRow{name: "simulate solve_failed, no interior vertex", act: simulate(okSpec),
			want:  refused(500, wire.CodeSolveFailed, "solve failed: fem: every vertex is constrained", 0),
			moved: with(served1, "simulate:solve_failed", 1)},
		endingRow{name: "simulate mesh_failed, draining", setup: drained, act: simulate(okSpec),
			want: refused(503, wire.CodeDraining, "serve: server draining", 0), moved: mv("rejected:draining", 1, "simulate:mesh_failed", 1)},
		endingRow{name: "simulate bad_request, no spec part",
			act: func(t *testing.T, r *endingRig) answer {
				body, ctype := multipartBody(t, map[string][]byte{"image": r.base})
				return r.send("POST", "/v1/simulate", ctype, body)
			},
			want:  badRequest400(`missing "spec" part: POST /v1/simulate takes multipart/form-data with a JSON spec and an NRRD image`),
			moved: mv("simulate:bad_request", 1)},
		// The mesh stage is a cache hit, and the client is gone before the
		// handler runs: the cancellation is the solve's alone.
		endingRow{name: "simulate canceled, mesh from cache", setup: func(t *testing.T, r *endingRig) { solvable(t, r); r.meshOK() },
			act: func(t *testing.T, r *endingRig) answer {
				body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(okSpec), "image": r.base})
				return r.direct(gone(), "/v1/simulate", ctype, body)
			},
			want:  refused(wire.StatusClientClosedRequest, wire.CodeCanceled, "solve canceled: fem: solve not started: context canceled", 0),
			moved: with(cacheHit1, "simulate:canceled", 1)},
	)
}

// with is m with the key/value pairs kv added; mv is the pairs alone.
func with(m map[string]int64, kv ...any) map[string]int64 {
	out := map[string]int64{}
	for k, v := range m {
		out[k] = v
	}
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i].(string)] = int64(kv[i+1].(int))
	}
	return out
}

func mv(kv ...any) map[string]int64 { return with(nil, kv...) }

// held runs act with one of the pool's sessions checked out.
func held(act func(t *testing.T, r *endingRig) answer) func(t *testing.T, r *endingRig) answer {
	return func(t *testing.T, r *endingRig) answer {
		defer r.hold().Release()
		return act(t, r)
	}
}

// faulted runs act with point armed to fire on each of its next fires
// chances.
func faulted(point faultinject.Point, fires int64, act func(t *testing.T, r *endingRig) answer) func(t *testing.T, r *endingRig) answer {
	return func(t *testing.T, r *endingRig) answer {
		return withFaults(point, fires, func() answer { return act(t, r) })
	}
}

func probe(path string) func(t *testing.T, r *endingRig) answer {
	return func(t *testing.T, r *endingRig) answer { return r.probe(path) }
}

// gone is the context of a client that has already gone away.
func gone() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestPinMeshPath pins what /v1/mesh answers on the paths the ending
// table's rows above do not take: a conditional whose validator names
// the other format, the oversized and empty uploads, and a cached pair
// on a draining node — refused to a meshing request, answered to a
// conditional one. It runs with the brownout controller off and on (the
// daemon's default): an idle controller must not show.
func TestPinMeshPath(t *testing.T) {
	draining := func(t *testing.T, r *endingRig) { r.meshOK(); r.srv.AnnounceDrain(0) }
	for _, brownout := range []bool{false, true} {
		rows := []endingRow{
			{name: "off conditional against the vtk entity", setup: meshFirst,
				act:  func(t *testing.T, r *endingRig) answer { return r.mesh("?format=off", "If-None-Match", r.etag) },
				want: served("", "off"), moved: cacheHit1},
			{name: "vtk conditional against the off entity",
				setup: func(t *testing.T, r *endingRig) { r.meshOK(); r.ref = r.entity("", "off") },
				act: func(t *testing.T, r *endingRig) answer {
					off := r.ref.Header.Get("ETag")
					if !strings.HasSuffix(r.etag, `-vtk"`) || off != strings.TrimSuffix(r.etag, `-vtk"`)+`-off"` {
						t.Errorf("entity tags %q / %q: want one blob tag with the format folded in", r.etag, off)
					}
					return r.mesh("", "If-None-Match", off)
				},
				want: servedVTK, moved: cacheHit1},
			{name: "oversized upload", setup: capped, act: postBody(largeBody, ""),
				want: refused(413, wire.CodeTooLarge, "request body exceeds the 4096 byte cap", 0), moved: mv()},
			{name: "empty upload", act: postBody(func(*testing.T) []byte { return nil }, ""),
				want: badRequest400("empty body: expected an NRRD label image"), moved: mv()},
			{name: "cached pair while draining", setup: draining, act: post(""),
				want: refused(503, wire.CodeDraining, "serve: server draining", 0), moved: mv("rejected:draining", 1)},
			{name: "conditional while draining", setup: draining,
				act:  func(t *testing.T, r *endingRig) answer { return r.mesh("", "If-None-Match", r.etag) },
				want: unchanged(""), moved: mv("store_hits", 1)},
		}
		for i := range rows {
			setup := rows[i].setup
			rows[i].setup = func(t *testing.T, r *endingRig) {
				if !brownout {
					r.srv.brownout = nil
				}
				if setup != nil {
					setup(t, r)
				}
			}
			rows[i].name = "brownout=" + strconv.FormatBool(brownout) + "/" + rows[i].name
		}
		runEndings(t, rows...)
	}
}

// TestServerHostileInputs: a gzip bomb that decodes past its declared
// voxel count, and bad parameters, each refused before a session.
func TestServerHostileInputs(t *testing.T) {
	// The header fits the cap; the payload inflates to 32x its
	// declaration, which the bounded reader must refuse.
	bomb := func(t *testing.T) []byte {
		hdr := "NRRD0004\ntype: uint8\ndimension: 3\nsizes: 4 4 4\nspacings: 1 1 1\nencoding: gzip\n\n"
		return gzipNRRD(t, hdr, make([]byte, 2048))
	}
	rows := []endingRow{{name: "gzip bomb", setup: capped, act: postBody(bomb, ""),
		want: badRequest400("decoding image: nrrd: gzip data decodes to more than the declared 64 voxels"), moved: mv()}}
	for q, reason := range map[string]string{
		"?format=stl":     `bad request: unknown format "stl" (want vtk or off)`,
		"?timeout=banana": `bad request: bad timeout="banana" (want a positive duration like 30s)`,
		"?delta=NaN":      `bad request: bad delta="NaN" (want a positive finite number)`,
	} {
		rows = append(rows, endingRow{name: q, act: post(q), want: badRequest400(reason), moved: mv()})
	}
	runEndings(t, rows...)
}

// TestServerRoundTripReaderWriter drives NRRD → mesh → VTK and OFF
// entirely through io.Reader/io.Writer paths — the request body in, a
// parseable mesh out, no temp files — including a gzip-encoded NRRD,
// which meshes to the raw one's bytes.
func TestServerRoundTripReaderWriter(t *testing.T) {
	runEndings(t,
		endingRow{name: "raw NRRD to labelled VTK",
			act: func(t *testing.T, r *endingRig) answer {
				a := r.mesh("")
				if m, err := meshio.ReadVTK(bytes.NewReader(a.body)); err != nil || len(m.Cells) == 0 || len(m.Labels) != len(m.Cells) {
					t.Errorf("the VTK answer does not parse to a labelled mesh: %v", err)
				}
				return a
			},
			want: servedVTK, moved: served1},
		endingRow{name: "gzip NRRD, the raw one's mesh", setup: func(t *testing.T, r *endingRig) { r.ref = r.mesh("") },
			act: func(t *testing.T, r *endingRig) answer {
				raw := r.base
				r.base = gzipNRRDBody(t, raw)
				if len(r.base) >= len(raw) {
					t.Errorf("gzip NRRD (%d bytes) is not smaller than raw (%d)", len(r.base), len(raw))
				}
				return r.mesh("")
			},
			want: func(r *endingRig) pin {
				p := servedVTK(r)
				if p.sha != sha(r.ref.body) {
					t.Error("the gzip NRRD meshed to other bytes than the raw one")
				}
				return p
			},
			moved: served1},
		endingRow{name: "OFF",
			act: func(t *testing.T, r *endingRig) answer {
				a := r.mesh("?format=off")
				if !bytes.HasPrefix(a.body, []byte("OFF\n")) {
					t.Errorf("the OFF answer starts %.20q", a.body)
				}
				return a
			},
			want: served("", "off"), moved: served1},
	)
}

// TestServerQualityOverrides: per-request knobs reach the run. A
// coarser delta makes fewer tetrahedra than the default, an element
// budget caps the mesh, and a below-bound radius-edge ratio, which
// could refine forever, is refused up front.
func TestServerQualityOverrides(t *testing.T) {
	cells := func(a answer) int {
		m, _ := meshio.ReadVTK(bytes.NewReader(a.body))
		return len(m.Cells)
	}
	knob := func(query string, spec wire.MeshSpec, ok func(n, dflt int) bool) endingRow {
		return endingRow{name: query, setup: func(t *testing.T, r *endingRig) { r.base = nrrdBody(t, 16); r.ref = r.mesh("") },
			act: func(t *testing.T, r *endingRig) answer {
				a := r.mesh(query)
				if n, dflt := cells(a), cells(r.ref); !ok(n, dflt) || n == 0 {
					t.Errorf("%s made %d cells, the default %d", query, n, dflt)
				}
				return a
			},
			want: served(spec.Variant(), "vtk"), moved: served1}
	}
	runEndings(t,
		knob("?delta=6", wire.MeshSpec{Delta: 6}, func(n, dflt int) bool { return n < dflt }),
		knob("?max_elements=50", wire.MeshSpec{MaxElements: 50}, func(n, _ int) bool { return n <= 200 }),
		endingRow{name: "?max_radius_edge=1.5", act: post("?max_radius_edge=1.5"),
			want: badRequest400("bad request: max_radius_edge=1.5 below the provable bound 2"), moved: mv()},
	)
}

// TestCacheProbeEndpoint: GET /v1/cache/{imageKey}/{variant} is the
// body-less replica read — key and format validation, the other
// format's entity, and path-escaped variants that do not bleed into
// each other.
func TestCacheProbeEndpoint(t *testing.T) {
	atDelta := func(t *testing.T, r *endingRig) { r.mesh("?delta=2.5") }
	variant := (&wire.MeshSpec{Delta: 2.5}).Variant()
	runEndings(t,
		endingRow{name: "a malformed key",
			act: func(t *testing.T, r *endingRig) answer {
				return r.send("GET", "/v1/cache/"+strings.Repeat("A", 64), "", nil)
			},
			want:  badRequest400("image key must be 64 lowercase hex characters (the full SHA-256 of the image)"),
			moved: mv()},
		endingRow{name: "a bogus format", act: func(t *testing.T, r *endingRig) answer { return r.probe("?format=stl") },
			want: badRequest400(`unknown format "stl" (want vtk or off)`), moved: mv()},
		endingRow{name: "the off entity against the vtk tag", setup: meshFirst,
			act:   func(t *testing.T, r *endingRig) answer { return r.probe("?format=off", "If-None-Match", r.etag) },
			want:  probed("", "off"),
			moved: with(cacheHit1, "cache_only_served", 1)},
		endingRow{name: "an escaped variant", setup: atDelta,
			act:   func(t *testing.T, r *endingRig) answer { return r.probe("/" + url.PathEscape(variant)) },
			want:  probed(variant, "vtk"),
			moved: with(cacheHit1, "cache_only_served", 1)},
		endingRow{name: "an unknown variant", setup: atDelta,
			act:   func(t *testing.T, r *endingRig) answer { return r.probe("/" + url.PathEscape("d=9,n=0,re=0,fa=0")) },
			want:  cacheMiss("d=9,n=0,re=0,fa=0"),
			moved: mv("cache_only_miss", 1)},
	)
}

// TestPinSimulateUploadErrors pins the upload rejections of /v1/simulate
// — the same body-read mapping /v1/mesh has, with simulate's own wording
// for the parts — and their bad_request outcome.
func TestPinSimulateUploadErrors(t *testing.T) {
	const spec = `{"dirichlet": [{"value": 0}]}`
	upload := func(name string, setup func(*testing.T, *endingRig), image func(*testing.T) []byte, reason string, status int, code string) endingRow {
		return endingRow{name: name, setup: setup,
			act: func(t *testing.T, r *endingRig) answer {
				body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(spec), "image": image(t)})
				return r.send("POST", "/v1/simulate", ctype, body)
			},
			want: refused(status, code, reason, 0), moved: mv("simulate:bad_request", 1)}
	}
	runEndings(t,
		upload("oversized upload", capped, largeBody, "request body exceeds the 4096 byte cap", 413, wire.CodeTooLarge),
		upload("empty image part", nil, func(*testing.T) []byte { return []byte{} },
			`empty "image" part: expected an NRRD label image`, 400, wire.CodeBadRequest),
		upload("undecodable image", nil, func(*testing.T) []byte { return []byte("not an image") },
			"decoding image: nrrd: reading magic: EOF", 400, wire.CodeBadRequest),
	)
}

// TestResponsesAreLengthFramed: a mesh or a field well past net/http's
// 2 KiB sniff-and-frame buffer leaves the daemon as one length-framed
// entity (doPin checks the framing of every answer) — as a coalesced
// follower, a probe, and a simulate in VTK and as a summary.
func TestResponsesAreLengthFramed(t *testing.T) {
	const spec = `{"dirichlet":[{"value":0}],"source":{"uniform":1}}`
	large := func(t *testing.T, r *endingRig) { r.base = largeBody(t) }
	big := func(act func(t *testing.T, r *endingRig) answer) func(t *testing.T, r *endingRig) answer {
		return func(t *testing.T, r *endingRig) answer {
			a := act(t, r)
			if len(a.body) < 4096 {
				t.Errorf("only %d bytes: too small to have been chunked in the first place", len(a.body))
			}
			return a
		}
	}
	runEndings(t,
		endingRow{name: "coalesced follower", setup: large,
			act: big(func(t *testing.T, r *endingRig) answer {
				return r.withLeader(ending{200, ""}, r.leader, r.follower)
			}),
			want: servedVTK, moved: mv("accepted", 2, "completed", 2, "coalesced", 1, "recorded", 1)},
		endingRow{name: "probe", setup: func(t *testing.T, r *endingRig) { large(t, r); r.meshOK() },
			act: big(func(t *testing.T, r *endingRig) answer { return r.probe("") }), want: probed("", "vtk"),
			moved: with(cacheHit1, "cache_only_served", 1)},
		endingRow{name: "simulate", setup: large, act: big(func(t *testing.T, r *endingRig) answer { return r.simulate(spec) }),
			want: simulated("text/vtk", "b248cee1600d2670fc79e17e795a3ca6f338cfa3924af5d8fec440abe58d28e5"), moved: with(served1, "simulate:ok", 1)},
		endingRow{name: "simulate summary", setup: large,
			act:  func(t *testing.T, r *endingRig) answer { return r.simulate(`{"format":"summary",` + spec[1:]) },
			want: simulated("application/json", "469e0c7a6d058979fd8eeb353898a29c15fe919c6247529196302a04a6991c32"), moved: with(served1, "simulate:ok", 1)},
	)
}

// TestFailedEncodeIs500: a response body that cannot be encoded is
// answered with the shared 500 envelope and nothing of the entity — no
// 200, no success headers, no partial body — and counted as a failed
// solve.
func TestFailedEncodeIs500(t *testing.T) {
	runEndings(t, endingRow{name: "a field shorter than the mesh",
		act: func(t *testing.T, r *endingRig) answer {
			snap := &core.MeshSnapshot{Verts: []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}}, Cells: [][4]int32{{0, 1, 2, 3}}}
			rec := httptest.NewRecorder()
			r.srv.replySimulation(rec, "vtk", snap, []float64{1, 2}, &SimSummary{Vertices: 4})
			a := read(t, rec.Result())
			if h := a.Header.Get("X-Simulate-Summary") + a.Header.Get("Content-Length"); h != "" {
				t.Errorf("the failed answer carries success headers: %q", h)
			}
			a.direct = true
			return a
		},
		want:  refused(500, wire.CodeInternal, `encoding the response: meshio: field "u" has 2 values for 4 vertices`, 0),
		moved: mv("simulate:solve_failed", 1)})
}

// TestBodySpecPrecedence: a multipart "spec" part replaces the query
// string wholesale — a query knob absent from the body spec does not
// leak through — and a spec-less multipart reads the query as always.
func TestBodySpecPrecedence(t *testing.T) {
	multipart := func(parts map[string]string, query string) func(t *testing.T, r *endingRig) answer {
		return func(t *testing.T, r *endingRig) answer {
			p := map[string][]byte{"image": r.base}
			for k, v := range parts {
				p[k] = []byte(v)
			}
			body, ctype := multipartBody(t, p)
			return r.send("POST", "/v1/mesh"+query, ctype, body)
		}
	}
	runEndings(t,
		endingRow{name: "a body spec", act: multipart(map[string]string{"spec": `{"delta": 2.5}`}, "?delta=9&max_elements=777&format=off"),
			want: served((&wire.MeshSpec{Delta: 2.5}).Variant(), "vtk"), moved: served1},
		endingRow{name: "no spec part", act: multipart(nil, "?delta=9"),
			want: served((&wire.MeshSpec{Delta: 9}).Variant(), "vtk"), moved: served1},
	)
}

// TestQuerySurfaceByteIdentical: the raw-body-plus-query surface and
// the equivalent JSON body spec name one entity: the second is a cache
// hit on the first's bytes.
func TestQuerySurfaceByteIdentical(t *testing.T) {
	runEndings(t, endingRow{name: "a body spec after the query",
		setup: func(t *testing.T, r *endingRig) { r.ref = r.mesh("?delta=2.5") },
		act: func(t *testing.T, r *endingRig) answer {
			body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(`{"delta": 2.5}`), "image": r.base})
			return r.send("POST", "/v1/mesh", ctype, body)
		},
		want: func(r *endingRig) pin {
			if !bytes.HasPrefix(r.ref.body, []byte("# vtk DataFile Version 3.0")) {
				t.Errorf("the query surface answers %.40q, not legacy VTK", r.ref.body)
			}
			return pin{status: 200, etag: r.ref.Header.Get("ETag"), ctype: "text/vtk", sha: sha(r.ref.body)}
		},
		moved: with(cacheHit1, "mem:entity,miss", 1)})
}

// TestServerDrain: liveness is not readiness. A drained node still
// answers /healthz, so an orchestrator does not kill it mid-drain, but
// /readyz turns new traffic away.
func TestServerDrain(t *testing.T) {
	r := newEndingRig(t, 1)
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

// TestFailedRunQuarantined: one failed run is enough. A single poisoned
// run gets its session replaced, and the next run on the slot is clean.
func TestFailedRunQuarantined(t *testing.T) {
	r := newEndingRig(t, 1)
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
	r := newEndingRig(t, 1)
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
	r := newEndingRig(t, 1)
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

// TestErrorEnvelope: an error answer is the JSON envelope, and a
// capacity rejection mirrors its Retry-After header into it.
func TestErrorEnvelope(t *testing.T) {
	r := newEndingRig(t, 1)
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

// TestCacheOnly304SameOnBothSurfaces: a cache-only conditional that
// validates, on GET /v1/cache (the one cache-only surface), is a bare
// 304 stamped as a cache-only hit under the entry's ETag.
func TestCacheOnly304SameOnBothSurfaces(t *testing.T) {
	r := newEndingRig(t, 1)
	r.meshOK()
	a := r.probe("", "If-None-Match", r.etag)
	if got := a.Header.Get(wire.CacheOnlyHeader); a.StatusCode != http.StatusNotModified || got != "hit" ||
		a.Header.Get("ETag") != r.etag || len(a.body) != 0 {
		t.Errorf("%d, %s %q, ETag %q, %d body bytes: want a bare 304 hit under %q",
			a.StatusCode, wire.CacheOnlyHeader, got, a.Header.Get("ETag"), len(a.body), r.etag)
	}
}

// TestImageKeyFullDigest: the server files an upload's mesh under the
// complete SHA-256 of the body — the key doubles as the coalescing join
// key and the image-cache identity — so a key that shares its first 8
// bytes and differs after them is another image.
func TestImageKeyFullDigest(t *testing.T) {
	r := newEndingRig(t, 1)
	r.meshOK()
	key := sha(r.base)
	if !cached(r.srv.cache, key, "") {
		t.Fatal("the mesh is not cached under the full SHA-256 of the upload")
	}
	last := "0"
	if key[63] == '0' {
		last = "1"
	}
	if e := r.send("GET", "/v1/cache/"+key[:16]+strings.Repeat("0", 47)+last, "", nil).ending(); e != (ending{404, wire.CodeCacheMiss}) {
		t.Errorf("a key sharing the first 8 bytes answered %+v, want a cache-only miss", e)
	}
}

// TestValidImageKey: GET /v1/cache takes exactly the SHA-256
// lowercase-hex key shape; every other shape is a 400 bad_request.
func TestValidImageKey(t *testing.T) {
	r := newEndingRig(t, 1)
	if e := r.probe("").ending(); e != (ending{http.StatusNotFound, wire.CodeCacheMiss}) {
		t.Fatalf("a real image key answered %+v, want a cache-only miss", e)
	}
	for _, bad := range []string{
		"abc",
		strings.Repeat("a", 63), strings.Repeat("a", 65),
		strings.Repeat("A", 64), strings.Repeat("g", 64),
		strings.Repeat("a", 32) + " " + strings.Repeat("a", 31),
	} {
		if e := r.send("GET", "/v1/cache/"+url.PathEscape(bad), "", nil).ending(); e != (ending{400, wire.CodeBadRequest}) {
			t.Errorf("key %q answered %+v, want 400 %s", bad, e, wire.CodeBadRequest)
		}
	}
}
