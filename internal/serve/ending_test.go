package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// ledgerSeries names the job-ledger families — what settle and, for
// /v1/simulate, endSimulation book — by their short row names.
var ledgerSeries = map[string]string{
	"pi2md_jobs_accepted_total":     "accepted",
	"pi2md_jobs_completed_total":    "completed",
	"pi2md_jobs_failed_total":       "failed",
	"pi2md_coalesced_jobs_total":    "coalesced",
	"pi2md_cache_served_jobs_total": "cache_served",
	"pi2md_cache_only_served_total": "cache_only_served",
	"pi2md_cache_only_miss_total":   "cache_only_miss",
	"pi2md_jobs_rejected_total":     "rejected",
	"pi2md_browned_out_jobs_total":  "browned_out",
	"pi2md_simulate_jobs_total":     "simulate",
}

// jobLedger reads every job-ledger series off the exposition — a
// labelled one as "name:value" — plus the length of /v1/stats'
// recent-runs ring as "recorded".
func jobLedger(srv *Server) map[string]int64 {
	var b strings.Builder
	srv.Registry().WritePrometheus(&b)
	out := map[string]int64{"recorded": int64(len(srv.Stats().RecentRuns))}
	for _, line := range strings.Split(b.String(), "\n") {
		sample, val, _ := strings.Cut(line, " ")
		family, labels, _ := strings.Cut(sample, "{")
		name := ledgerSeries[family]
		if name == "" {
			continue
		}
		if _, v, ok := strings.Cut(labels, `="`); ok {
			name += ":" + strings.TrimSuffix(v, `"}`)
		}
		f, _ := strconv.ParseFloat(val, 64)
		out[name] = int64(f)
	}
	return out
}

// ledgerDelta is what moved from before to after, zero entries dropped.
func ledgerDelta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// ending is how one request was answered: its status and envelope code
// ("" below 400).
type ending struct {
	status int
	code   string
}

// endingRig is one row's server: a pool of one over a fresh result cache.
type endingRig struct {
	srv  *Server
	ts   *httptest.Server
	base []byte // the row's image
	etag string // its entity tag, once meshOK has meshed it
}

// do sends one request, with optional header pairs, and reads how it
// ended. It may run off the test goroutine: a transport failure comes
// back as the code.
func (r *endingRig) do(method, path, ctype string, body []byte, hdr ...string) ending {
	req, err := http.NewRequest(method, r.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return ending{code: err.Error()}
	}
	req.Header.Set("Content-Type", ctype)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := r.ts.Client().Do(req)
	if err != nil {
		return ending{code: err.Error()}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return ending{code: err.Error()}
	}
	return ending{resp.StatusCode, envelopeCode(resp.StatusCode, out)}
}

// envelopeCode is the error envelope's code, "" below 400 (and for a
// body that is not the envelope, which then fails the row).
func envelopeCode(status int, body []byte) string {
	var env wire.ErrorEnvelope
	if status >= 400 {
		json.Unmarshal(body, &env)
	}
	return env.Error.Code
}

func (r *endingRig) mesh(query string, image []byte, hdr ...string) ending {
	return r.do("POST", "/v1/mesh"+query, "application/octet-stream", image, hdr...)
}

// meshOK is a setup step that must succeed; it keeps the entity tag.
func (r *endingRig) meshOK(t *testing.T) {
	t.Helper()
	_, r.etag = meshOK(t, r.ts.Client(), r.ts.URL, "", r.base)
}

func (r *endingRig) simulate(t *testing.T, spec string) ending {
	body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(spec), "image": r.base})
	return r.do("POST", "/v1/simulate", ctype, body)
}

// withLeader holds the pool's only session and starts a leader for the
// base image, so it queues with its flight open; follow runs then, and
// the wait it returns is called once the leader has been let go and
// answered 200.
func (r *endingRig) withLeader(t *testing.T, follow func() (wait func() ending)) ending {
	t.Helper()
	lease, err := r.srv.Pool().Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	leader := make(chan ending, 1)
	go func() { leader <- r.mesh("", r.base) }()
	waitMembers(t, r.srv, wire.ImageKey(r.base), 1)
	wait := follow()
	lease.Release()
	if l := <-leader; l.status != http.StatusOK {
		t.Errorf("leader answered %+v", l)
	}
	return wait()
}

// withFaults runs fn with point armed to fire on each of its next
// fires chances.
func withFaults(point faultinject.Point, fires int64, fn func() ending) ending {
	defer faultinject.Enable(faultinject.New(faultinject.Config{
		Rates:    map[faultinject.Point]float64{point: 1},
		MaxFires: map[faultinject.Point]int64{point: fires},
	}))()
	return fn()
}

// wantEntityHits checks, when the returned func runs, that the entity
// cache answered exactly n requests since the call.
func wantEntityHits(t *testing.T, srv *Server, n int64) func() {
	before := srv.entities.hit.Value()
	return func() {
		if got := srv.entities.hit.Value() - before; got != n {
			t.Errorf("entity hits moved by %d, want %d", got, n)
		}
	}
}

// TestEveryEndingBooksOnce: every way a request can end that the unit
// harness triggers deterministically moves every job-ledger series by
// exactly what it should — nothing booked twice, nothing missed — and
// is answered with its envelope code.
func TestEveryEndingBooksOnce(t *testing.T) {
	const okSpec = `{"format": "summary", "dirichlet": [{"value": 0}], "source": {"uniform": 1}}`
	served := map[string]int64{"accepted": 1, "completed": 1, "recorded": 1}
	hit := map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "recorded": 1}
	meshFirst := func(t *testing.T, r *endingRig) { r.meshOK(t) }
	// A scale-6 mesh has no interior vertex for a solve to free.
	solvable := func(t *testing.T, r *endingRig) { r.base = nrrdBody(t, 16) }

	rows := []struct {
		name  string
		setup func(t *testing.T, r *endingRig)
		act   func(t *testing.T, r *endingRig) ending
		want  ending
		moved map[string]int64
	}{
		{"leader run", nil,
			func(t *testing.T, r *endingRig) ending { return r.mesh("", r.base) },
			ending{200, ""}, served},
		{"disk hit", meshFirst,
			func(t *testing.T, r *endingRig) ending {
				defer wantEntityHits(t, r.srv, 0)()
				return r.mesh("", r.base)
			},
			ending{200, ""}, hit},
		{"memory hit", func(t *testing.T, r *endingRig) { r.meshOK(t); r.meshOK(t) },
			func(t *testing.T, r *endingRig) ending {
				defer wantEntityHits(t, r.srv, 1)()
				return r.mesh("", r.base)
			},
			ending{200, ""}, hit},
		{"coalesced follower and its leader", nil,
			func(t *testing.T, r *endingRig) ending {
				return r.withLeader(t, func() func() ending {
					follower := make(chan ending, 1)
					go func() { follower <- r.mesh("", r.base) }()
					waitMembers(t, r.srv, wire.ImageKey(r.base), 2)
					return func() ending { return <-follower }
				})
			},
			ending{200, ""}, map[string]int64{"accepted": 2, "completed": 2, "coalesced": 1, "recorded": 1}},
		{"follower detached at its deadline, and its leader", nil,
			func(t *testing.T, r *endingRig) ending {
				return r.withLeader(t, func() func() ending {
					e := r.mesh("?timeout=100ms", r.base)
					return func() ending { return e }
				})
			},
			ending{503, wire.CodeDeadline}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "rejected:deadline": 1}},
		{"draining", func(t *testing.T, r *endingRig) { r.srv.AnnounceDrain(0) },
			func(t *testing.T, r *endingRig) ending { return r.mesh("", r.base) },
			ending{503, wire.CodeDraining}, map[string]int64{"rejected:draining": 1}},
		{"injected queue full", nil,
			func(t *testing.T, r *endingRig) ending {
				return withFaults(faultinject.QueueFull, 1, func() ending { return r.mesh("", r.base) })
			},
			ending{429, wire.CodeQueueFull}, map[string]int64{"rejected:queue_full": 1}},
		{"open breaker",
			func(t *testing.T, r *endingRig) {
				withFaults(faultinject.RunPoisoned, 3, func() ending {
					for i := 0; i < 3; i++ { // BreakerThreshold failed leaders trip it
						r.mesh("", r.base)
					}
					return ending{}
				})
			},
			func(t *testing.T, r *endingRig) ending { return r.mesh("", r.base) },
			ending{503, wire.CodeBreakerOpen}, map[string]int64{"rejected:breaker_open": 1}},
		{"cache-only miss", nil,
			func(t *testing.T, r *endingRig) ending { return r.mesh("", r.base, wire.CacheOnlyHeader, "1") },
			ending{404, wire.CodeCacheMiss}, map[string]int64{"cache_only_miss": 1}},
		{"undecodable upload", nil,
			func(t *testing.T, r *endingRig) ending { return r.mesh("", []byte("not an NRRD image")) },
			ending{400, wire.CodeBadRequest}, map[string]int64{}},
		{"poisoned run", nil,
			func(t *testing.T, r *endingRig) ending {
				return withFaults(faultinject.RunPoisoned, 1, func() ending { return r.mesh("", r.base) })
			},
			ending{500, wire.CodeInternal}, map[string]int64{"accepted": 1, "failed": 1}},
		{"cache-only 304, POST /v1/mesh", meshFirst,
			func(t *testing.T, r *endingRig) ending {
				return r.mesh("", r.base, wire.CacheOnlyHeader, "1", "If-None-Match", r.etag)
			},
			ending{304, ""}, map[string]int64{"cache_only_served": 1}},
		{"cache-only 304, GET /v1/cache", meshFirst,
			func(t *testing.T, r *endingRig) ending {
				return r.do("GET", "/v1/cache/"+wire.ImageKey(r.base), "", nil, "If-None-Match", r.etag)
			},
			ending{304, ""}, map[string]int64{"cache_only_served": 1}},
		{"simulate ok", solvable,
			func(t *testing.T, r *endingRig) ending { return r.simulate(t, okSpec) },
			ending{200, ""}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "simulate:ok": 1}},
		{"simulate bad_bc", solvable,
			func(t *testing.T, r *endingRig) ending {
				return r.simulate(t, `{"dirichlet": [{"sphere": {"center": [1000, 1000, 1000], "r": 1}, "value": 0}]}`)
			},
			ending{400, wire.CodeBadBC}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "simulate:bad_bc": 1}},
		{"simulate solve_failed, no interior vertex", nil,
			func(t *testing.T, r *endingRig) ending { return r.simulate(t, okSpec) },
			ending{500, wire.CodeSolveFailed}, map[string]int64{"accepted": 1, "completed": 1, "recorded": 1, "simulate:solve_failed": 1}},
		{"simulate mesh_failed, draining", func(t *testing.T, r *endingRig) { r.srv.AnnounceDrain(0) },
			func(t *testing.T, r *endingRig) ending { return r.simulate(t, okSpec) },
			ending{503, wire.CodeDraining}, map[string]int64{"rejected:draining": 1, "simulate:mesh_failed": 1}},
		{"simulate bad_request, no spec part", nil,
			func(t *testing.T, r *endingRig) ending {
				body, ctype := multipartBody(t, map[string][]byte{"image": r.base})
				return r.do("POST", "/v1/simulate", ctype, body)
			},
			ending{400, wire.CodeBadRequest}, map[string]int64{"simulate:bad_request": 1}},
		{"simulate canceled, mesh from cache", func(t *testing.T, r *endingRig) { solvable(t, r); r.meshOK(t) },
			func(t *testing.T, r *endingRig) ending {
				body, ctype := multipartBody(t, map[string][]byte{"spec": []byte(okSpec), "image": r.base})
				ctx, cancel := context.WithCancel(context.Background())
				cancel() // the client is gone before the handler runs
				req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)).WithContext(ctx)
				req.Header.Set("Content-Type", ctype)
				rec := httptest.NewRecorder()
				r.srv.Handler().ServeHTTP(rec, req)
				return ending{rec.Code, envelopeCode(rec.Code, rec.Body.Bytes())}
			},
			ending{wire.StatusClientClosedRequest, wire.CodeCanceled},
			map[string]int64{"accepted": 1, "completed": 1, "cache_served": 1, "recorded": 1, "simulate:canceled": 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: openTestCache(t, t.TempDir())})
			r := &endingRig{srv: srv, ts: ts, base: nrrdBody(t, 6)}
			if row.setup != nil {
				row.setup(t, r)
			}
			before := jobLedger(srv)
			got := row.act(t, r)
			after := jobLedger(srv)
			if got != row.want {
				t.Errorf("answered %+v, want %+v", got, row.want)
			}
			if moved := ledgerDelta(before, after); !reflect.DeepEqual(moved, row.moved) {
				t.Errorf("ledger moved by %v, want %v", moved, row.moved)
			}
			if after["accepted"] != after["completed"]+after["failed"] {
				t.Errorf("accepted %d != completed %d + failed %d", after["accepted"], after["completed"], after["failed"])
			}
		})
	}
}

// TestCacheOnly304SameOnBothSurfaces: a cache-only conditional that
// validates is the same answer whether it arrives as a POST /v1/mesh with
// X-Pi2md-Cache-Only or as the body-less GET /v1/cache probe — a bare
// 304 stamped as a cache-only hit, counted once in
// pi2md_cache_only_served_total.
func TestCacheOnly304SameOnBothSurfaces(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: openTestCache(t, t.TempDir())})
	c := ts.Client()
	image := nrrdBody(t, 7)
	_, etag := meshOK(t, c, ts.URL, "", image)

	for _, surface := range []struct {
		name string
		req  *http.Request
	}{
		{"POST /v1/mesh", pinReq(t, "POST", ts.URL+"/v1/mesh", "application/octet-stream", image,
			wire.CacheOnlyHeader, "1", "If-None-Match", etag)},
		{"GET /v1/cache", pinReq(t, "GET", ts.URL+"/v1/cache/"+wire.ImageKey(image), "", nil, "If-None-Match", etag)},
	} {
		served := srv.mCacheOnlyServed.Value()
		doPin(t, c, surface.name, surface.req, pin{status: 304, etag: etag, cacheOnly: "hit", sha: sha(nil)})
		if got := srv.mCacheOnlyServed.Value() - served; got != 1 {
			t.Errorf("%s: cache_only_served moved by %d, want 1", surface.name, got)
		}
	}
}
