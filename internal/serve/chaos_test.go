package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// chaosSeed returns the soak seed: PI2MD_CHAOS_SEED if set (the CI
// matrix), a fixed default otherwise — the run is reproducible either
// way.
func chaosSeed(t *testing.T) int64 {
	if v := os.Getenv("PI2MD_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad PI2MD_CHAOS_SEED=%q: %v", v, err)
		}
		return n
	}
	return 11
}

// freshNRRD returns base with a comment line after the magic: a new
// SHA-256 over identical voxels, so the server has never seen the image
// and must run it (the bench harness's trick for cold requests).
func freshNRRD(base []byte, seed int64, serial int) []byte {
	nl := bytes.IndexByte(base, '\n') + 1
	tag := fmt.Sprintf("# chaos %016x %08d\n", uint64(seed), serial)
	out := make([]byte, 0, len(base)+len(tag))
	out = append(out, base[:nl]...)
	out = append(out, tag...)
	return append(out, base[nl:]...)
}

// chaosOutcome is one request's observed behavior, checked against
// the service invariants after the storm.
type chaosOutcome struct {
	code       int
	body       string
	retryAfter string
}

// TestChaosSoak is the service-level chaos harness: a live Server
// under a seeded randomized workload with injected worker panics,
// slow sessions, queue-full storms and poisoned runs. Most mesh posts
// carry a never-seen body, so the storm runs sessions rather than the
// result cache. It asserts the self-healing invariants:
//
//   - no request hangs (every worker returns, bounded);
//   - every 4xx/5xx carries a reason, every 429/503 a Retry-After;
//   - once the storm ends, every (body, variant) pair it posted is
//     served 200 without operator action;
//   - the metrics stay consistent: accepted == completed + failed,
//     runs == accepted − coalesced − cache-served, and one HTTP 200 per
//     completed job;
//   - the persistent cache, under injected torn writes, bit flips, and
//     write failures, never fails a request (corrupt entries are
//     quarantined and re-meshed, a refused write leaves its pair
//     uncached), and repeated hits are answered from the entity cache.
//
// A JSON invariant report is written to $PI2MD_CHAOS_REPORT if set.
func TestChaosSoak(t *testing.T) {
	seed := chaosSeed(t)
	const poolSize = 2
	srv, ts := newTestServer(t, Config{
		PoolSize:       poolSize,
		QueueDepth:     8,
		DefaultTimeout: 5 * time.Second,
	})
	cache := srv.cache
	srv.coalesceMax = 4
	client := ts.Client()

	bodies := [][]byte{nrrdBody(t, 6), nrrdBody(t, 7), nrrdBody(t, 8)}
	variants := []string{"", "delta=2.5", "max_elements=500"}
	formats := []string{"vtk", "off"}

	// Simulate traffic rides the same storm: a well-posed problem, an
	// unmatchable boundary condition (post-mesh 400), and a malformed
	// spec (pre-mesh 400). Bodies are prebuilt — multipartBody may
	// t.Fatal, which worker goroutines must not.
	simSpecs := []string{
		`{"dirichlet": [{"plane": {"axis": "z", "side": "min"}, "value": 0}], "source": {"uniform": 1}}`,
		`{"dirichlet": [{"sphere": {"center": [9999, 9999, 9999], "r": 1}, "value": 0}]}`,
		`{"dirichlet": []}`,
	}
	type simReq struct {
		body  []byte
		ctype string
	}
	simBodies := make([][]simReq, len(bodies))
	for i, b := range bodies {
		for _, spec := range simSpecs {
			body, ctype := multipartBody(t, map[string][]byte{
				"spec":  []byte(spec),
				"image": b,
			})
			simBodies[i] = append(simBodies[i], simReq{body, ctype})
		}
	}

	// ---- Phase A: the storm. -------------------------------------
	storm := faultinject.New(faultinject.Config{
		Seed: seed,
		Rates: map[faultinject.Point]float64{
			faultinject.WorkerPanic:    0.01,
			faultinject.SlowSession:    0.05,
			faultinject.QueueFull:      0.03,
			faultinject.RunPoisoned:    0.05,
			faultinject.CacheWriteFail: 0.08,
			faultinject.CacheTornWrite: 0.05,
			faultinject.CacheBitFlip:   0.05,
		},
		MaxFires: map[faultinject.Point]int64{
			faultinject.RunPoisoned: 6,
		},
		After: map[faultinject.Point]int64{
			faultinject.WorkerPanic: 50,
		},
		Delay: 50 * time.Millisecond,
	})
	restore := faultinject.Enable(storm)

	const workers, perWorker = 4, 30
	outcomes := make(chan chaosOutcome, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < perWorker; i++ {
				url := ts.URL + "/v1/mesh?format=" + formats[rng.Intn(len(formats))]
				if v := variants[rng.Intn(len(variants))]; v != "" {
					url += "&" + v
				}
				bi := rng.Intn(len(bodies))
				body, ctype := bodies[bi], "application/octet-stream"
				switch roll := rng.Intn(100); {
				case roll < 5:
					body = []byte("this is not an NRRD image")
				case roll < 12:
					url += "&timeout=1ms" // doomed: deadline pressure
				case roll < 32:
					// Simulate traffic: mesh + solve through the same pool.
					sim := simBodies[bi][rng.Intn(len(simSpecs))]
					url = ts.URL + "/v1/simulate"
					body, ctype = sim.body, sim.ctype
				case roll < 80:
					// Never seen before: the result cache cannot answer it.
					body = freshNRRD(body, seed, w*perWorker+i)
				}
				resp, err := client.Post(url, ctype, bytes.NewReader(body))
				if err != nil {
					t.Errorf("worker %d request %d: transport error: %v", w, i, err)
					continue
				}
				buf, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				outcomes <- chaosOutcome{
					code:       resp.StatusCode,
					body:       string(buf),
					retryAfter: resp.Header.Get("Retry-After"),
				}
			}
		}(w)
	}
	stormDone := make(chan struct{})
	go func() { wg.Wait(); close(stormDone) }()
	select {
	case <-stormDone:
	case <-time.After(90 * time.Second):
		t.Fatal("storm workload hung: a request never returned")
	}
	restore()

	// ---- Phase B: recovery — self-heal without operator action. ---
	// With the faults gone, every pair the storm posted is served: no
	// failure the storm caused outlives it.
	for _, b := range bodies {
		for _, v := range variants {
			if v != "" {
				v = "?" + v
			}
			r, err := client.Post(ts.URL+"/v1/mesh"+v, "application/octet-stream", bytes.NewReader(b))
			if err != nil {
				t.Fatalf("recovery request: %v", err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Errorf("after the storm, POST /v1/mesh%s answered %d, want 200", v, r.StatusCode)
			}
		}
	}

	// ---- Invariants. ----------------------------------------------
	// Bodies are length-framed, so a client has its whole answer before
	// the handler's epilogue bumps pi2md_http_requests_total. Close blocks
	// until every handler has returned; only then is the ledger final.
	ts.Close()
	close(outcomes)
	var fiveXX, fourXX, twoXX int
	for o := range outcomes {
		switch {
		case o.code >= 500 || o.code == wire.StatusClientClosedRequest:
			fiveXX++
		case o.code >= 400:
			fourXX++
		default:
			twoXX++
		}
		if o.code >= 400 {
			// Every rejection is machine-readable: the structured JSON
			// envelope with a code and a human reason, no bare strings.
			var env wire.ErrorEnvelope
			if err := json.Unmarshal([]byte(o.body), &env); err != nil ||
				env.Error.Code == "" || env.Error.Reason == "" {
				t.Errorf("status %d body is not the error envelope: %q", o.code, o.body)
			}
		}
		if (o.code == http.StatusTooManyRequests || o.code == http.StatusServiceUnavailable) && o.retryAfter == "" {
			t.Errorf("status %d missing Retry-After", o.code)
		}
	}

	accepted := srv.mAccepted.Value()
	completed := srv.mCompleted.Value()
	failed := srv.mFailed.Value()
	coalesced := srv.mCoalesced.Value()
	cacheServed := srv.mCacheServed.Value()
	runs := srv.mRunSeconds.Count()
	if accepted != completed+failed {
		t.Errorf("accepted %d != completed %d + failed %d", accepted, completed, failed)
	}
	if runs != accepted-coalesced-cacheServed {
		t.Errorf("runs %d != accepted %d - coalesced %d - cache-served %d",
			runs, accepted, coalesced, cacheServed)
	}
	// A simulate request whose mesh stage completed but whose solve then
	// failed counts as a completed mesh job without a 200 — so the 200
	// ledger balances against completed minus post-mesh solve failures
	// (pre-mesh rejections and mesh_failed never incremented completed).
	postMeshSimFail := int64(0)
	for _, o := range []string{"bad_bc", "solve_failed", "canceled", "deadline"} {
		postMeshSimFail += srv.mSimJobs.Value(o)
	}
	if ok200 := srv.mRequests.Value("200"); ok200 != completed-postMeshSimFail {
		t.Errorf("HTTP 200s %d != completed jobs %d - post-mesh simulate failures %d",
			ok200, completed, postMeshSimFail)
	}
	if srv.mSimJobs.Value("ok") < 1 {
		t.Error("no simulate job completed during the soak")
	}
	if srv.mSimJobs.Value("bad_bc") < 1 {
		t.Error("the unmatchable-BC simulate traffic never produced a bad_bc outcome")
	}
	ps := srv.pool.Stats()
	if ps.Quarantines < 1 {
		t.Errorf("quarantines = %d; the storm's poisoned runs and worker panics should have quarantined sessions", ps.Quarantines)
	}
	if runs*4 < accepted {
		t.Errorf("runs %d < accepted %d / 4: the soak is testing the result cache, not the sessions", runs, accepted)
	}
	if completed < 1 {
		t.Error("no job completed during the soak")
	}
	// Cache invariants: corrupt blobs were detected (counted), never
	// served — a served corrupt blob would have broken a 200 body, and
	// the store-level soak covers byte-exactness — and no request failed
	// because the disk did (a write fault only leaves its pair uncached).
	cs := cache.Stats()
	if cs.Hits+cs.Misses == 0 {
		t.Error("the soak never exercised the result cache")
	}
	// Some of those hits were answered from memory — and an entity is
	// only ever built from a blob Get verified, so the same invariants
	// cover them.
	entityHits := srv.entities.hit.Value()
	if entityHits < 1 {
		t.Errorf("entity hits = %d, want >= 1: no repeated hit was answered from memory", entityHits)
	}

	// ---- Invariant report (CI artifact). --------------------------
	if path := os.Getenv("PI2MD_CHAOS_REPORT"); path != "" {
		report := map[string]any{
			"seed":               seed,
			"accepted":           accepted,
			"completed":          completed,
			"failed":             failed,
			"coalesced":          coalesced,
			"runs":               runs,
			"http_2xx":           twoXX,
			"http_4xx":           fourXX,
			"http_5xx":           fiveXX,
			"quarantines":        ps.Quarantines,
			"deadline_aborts":    srv.mDeadlineAborts.Value(),
			"rejected_queue":     srv.mRejected.Value("queue_full"),
			"rejected_deadline":  srv.mRejected.Value("deadline"),
			"cache_served":       cacheServed,
			"entity_hits":        entityHits,
			"simulate_ok":        srv.mSimJobs.Value("ok"),
			"simulate_failed":    postMeshSimFail,
			"cache_hits":         cs.Hits,
			"cache_misses":       cs.Misses,
			"cache_writes":       cs.Writes,
			"cache_evictions":    cs.Evictions,
			"cache_corrupt":      cs.Corrupt,
			"cache_bytes":        cs.Bytes,
			"cache_write_errors": cs.WriteErrors,
			"fsck_quarantined":   cs.FsckQuarantined,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("writing chaos report: %v", err)
		}
	}
}
