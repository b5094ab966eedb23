package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cachestore"
	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/meshio"
	"repro/internal/wire"
)

// nrrdBody serializes a small sphere phantom as raw NRRD bytes.
func nrrdBody(t *testing.T, scale int) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := img.WriteNRRD(&b, img.SpherePhantom(scale)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// gzipNRRDBody re-encodes a raw NRRD as a gzip-encoded one (NRRD's
// own data encoding, not HTTP content encoding).
func gzipNRRDBody(t *testing.T, raw []byte) []byte {
	hdr, voxels, _ := bytes.Cut(raw, []byte("\n\n"))
	return gzipNRRD(t, strings.Replace(string(hdr), "encoding: raw", "encoding: gzip", 1)+"\n\n", voxels)
}

// gzipNRRD is an NRRD header followed by voxels gzipped.
func gzipNRRD(t *testing.T, hdr string, voxels []byte) []byte {
	b := bytes.NewBufferString(hdr)
	gz := gzip.NewWriter(b)
	gz.Write(voxels)
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// newTestServer is the serve tests' one fixture: a Server over a fresh
// result cache (unless cfg brings its own) behind an httptest front,
// both ended with the test.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = openTestCache(t, t.TempDir())
	}
	if cfg.Session.Workers == 0 {
		cfg.Session.Workers = 1
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// openTestCache opens a store in dir and closes it with the test.
func openTestCache(t testing.TB, dir string) *cachestore.Store {
	t.Helper()
	c, _, err := cachestore.Open(cachestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// cached reports whether the store indexes the pair, read from KeysMRU
// so that asking counts no hit and moves no recency.
func cached(c *cachestore.Store, key, variant string) bool {
	return slices.ContainsFunc(c.KeysMRU(), func(k cachestore.KeyInfo) bool { return k.ImageKey == key && k.Variant == variant })
}

const octet = "application/octet-stream"

// answer is one response read whole: the response (its body drained and
// closed), the body, and the error envelope's code and reason ("" below
// 400, or for a body that is not the envelope). A direct answer was
// served in-process and never framed for a wire.
type answer struct {
	*http.Response
	body         []byte
	code, reason string
	direct       bool
}

func (a answer) ending() ending { return ending{a.StatusCode, a.code} }

// read drains resp into an answer.
func read(t testing.TB, resp *http.Response) answer {
	t.Helper()
	defer resp.Body.Close()
	a := answer{Response: resp}
	var err error
	if a.body, err = io.ReadAll(resp.Body); err != nil {
		t.Error(err)
	}
	if resp.StatusCode >= 400 {
		var env wire.ErrorEnvelope
		json.Unmarshal(a.body, &env)
		a.code, a.reason = env.Error.Code, env.Error.Reason
	}
	return a
}

// send sends a request, with optional header pairs after its body, and
// reads the answer. It may run off the test goroutine: a transport
// failure fails the test and reads as status 0.
func send(t testing.TB, c *http.Client, method, url, ctype string, body []byte, hdr ...string) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err = c.Do(req)
	}
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return answer{Response: &http.Response{Header: http.Header{}}}
	}
	return read(t, resp)
}

// series names the exposition families the serve tests read by a short
// name; a labelled sample reads as "name:value[,value]".
var series = map[string]string{
	// The job ledger: what settle and, for /v1/simulate, endSimulation
	// book.
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
	// What the jobs cost, and where their answers came from.
	"pi2md_run_seconds_count":          "runs",
	"pi2md_queue_wait_seconds_count":   "waits",
	"pi2md_lease_seconds_count":        "leases",
	"pi2md_edt_cache_hits_total":       "edt_hits",
	"pi2md_warm_runs_total":            "warm_runs",
	"pi2md_cells_total":                "cells",
	"pi2md_sessions_quarantined_total": "quarantined",
	"pi2md_deadline_aborts_total":      "deadline_aborts",
	"pi2md_cache_hits_total":           "store_hits",
	"pi2md_cache_misses_total":         "store_misses",
	"pi2md_cache_writes_total":         "store_writes",
	"pi2md_cache_write_errors_total":   "write_errors",
	"pi2md_mem_cache_events_total":     "mem",
	"pi2md_mem_cache_bytes":            "mem_bytes",
	"pi2md_http_requests_total":        "http",
	"pi2md_brownout_tier":              "brownout_tier",
}

// ledger reads those series off the exposition, plus the length of
// the recent-runs ring as "recorded": the serve tests' one reader of
// the exposition.
func ledger(srv *Server) map[string]int64 {
	var b strings.Builder
	srv.Registry().WritePrometheus(&b)
	out := map[string]int64{"recorded": int64(len(recentRuns(srv)))}
	for _, line := range strings.Split(b.String(), "\n") {
		sample, val, _ := strings.Cut(line, " ")
		family, labels, _ := strings.Cut(sample, "{")
		name := series[family]
		if name == "" {
			continue
		}
		if labels != "" {
			var vals []string
			for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				_, v, _ := strings.Cut(l, "=")
				vals = append(vals, strings.Trim(v, `"`))
			}
			name += ":" + strings.Join(vals, ",")
		}
		f, _ := strconv.ParseFloat(val, 64)
		out[name] = int64(f)
	}
	return out
}

// family sums the labelled series of one family in a ledger.
func family(l map[string]int64, name string) (n int64) {
	for k, v := range l {
		if strings.HasPrefix(k, name+":") {
			n += v
		}
	}
	return n
}

// recentRuns is Stats' recent-runs ring: the serve tests' one reader
// of it.
func recentRuns(srv *Server) []JobSummary { return srv.Stats().RecentRuns }

// jobLedger names the job-ledger families, and the recent-runs ring.
var jobLedger = map[string]bool{
	"accepted": true, "completed": true, "failed": true, "coalesced": true,
	"cache_served": true, "cache_only_served": true, "cache_only_miss": true,
	"rejected": true, "browned_out": true, "simulate": true, "recorded": true,
}

// wantMoved checks a movement d against want: every job-ledger series
// moved by exactly what want says (0 when it names none), every other
// series want names (a zero included) by exactly that, and
// runs == accepted − coalesced − cache-served.
func wantMoved(t *testing.T, d, want map[string]int64) {
	t.Helper()
	for k, v := range d {
		family, _, _ := strings.Cut(k, ":")
		if _, named := want[k]; !named && jobLedger[family] {
			t.Errorf("%s moved by %d, want 0", k, v)
		}
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("%s moved by %d, want %d", k, d[k], v)
		}
	}
	if d["runs"] != d["accepted"]-d["coalesced"]-d["cache_served"] {
		t.Errorf("runs moved by %d, want accepted %d − coalesced %d − cache-served %d",
			d["runs"], d["accepted"], d["coalesced"], d["cache_served"])
	}
}

// moved is what changed from before to after, zero entries dropped.
func moved(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// TestServerEndToEnd is the acceptance test of the serving layer: an
// in-process server over a pool of 2 sessions takes 8 concurrent mesh
// requests, observes warm-session cache hits, suffers injected
// queue-full rejections, and reports consistent counters on /metrics.
func TestServerEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2, QueueDepth: 16})
	srv.cache = nil // the daemon's default (no -cache-dir): every repeat runs
	client := ts.Client()
	body := nrrdBody(t, 12)

	// Phase 1 — warm-up: the same payload three times, sequentially.
	// The second parse is the one the image cache keeps, so the third
	// request must be routed to the warm session and reuse its cached
	// distance transform.
	for i := 0; i < 3; i++ {
		a := send(t, client, "POST", ts.URL+"/v1/mesh", octet, body)
		if a.StatusCode != http.StatusOK {
			t.Fatalf("warm-up request %d: status %d: %s", i, a.StatusCode, a.body)
		}
		if _, err := meshio.ReadVTK(bytes.NewReader(a.body)); err != nil {
			t.Fatalf("warm-up response %d is not parseable VTK: %v", i, err)
		}
	}
	if hits := ledger(srv)["edt_hits"]; hits < 1 {
		t.Fatalf("warm-up produced %d EDT cache hits, want >= 1", hits)
	}

	// Phase 2 — a storm of 8 concurrent requests with an injected
	// queue-full fault bounded to exactly 2 firings.
	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Seed:     42,
		Rates:    map[faultinject.Point]float64{faultinject.QueueFull: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.QueueFull: 2},
	}))
	defer restore()

	const storm = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		byStatus = map[int]int{}
	)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := send(t, client, "POST", ts.URL+"/v1/mesh", octet, body)
			if a.StatusCode == http.StatusOK && !bytes.Contains(a.body, []byte("CELL_TYPES")) {
				t.Error("200 response is not a VTK mesh")
			}
			mu.Lock()
			byStatus[a.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	faultinject.Disable()

	if byStatus[http.StatusTooManyRequests] != 2 {
		t.Fatalf("storm statuses %v: want exactly 2 injected 429s", byStatus)
	}
	if byStatus[http.StatusOK] != storm-2 {
		t.Fatalf("storm statuses %v: want %d successes", byStatus, storm-2)
	}

	// Metrics consistency.
	if a := send(t, client, "POST", ts.URL+"/v1/mesh", octet, nil); a.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", a.StatusCode)
	}
	l := ledger(srv)
	wantCompleted := int64(3 + storm - 2) // warm-up + storm successes
	if l["completed"] != wantCompleted {
		t.Errorf("jobs_completed_total = %d, want %d", l["completed"], wantCompleted)
	}
	if l["rejected:queue_full"] != 2 {
		t.Errorf("jobs_rejected_total{queue_full} = %d, want 2", l["rejected:queue_full"])
	}
	if l["warm_runs"] < 1 {
		t.Errorf("warm_runs_total = %d, want >= 1", l["warm_runs"])
	}
	if l["accepted"] != l["completed"]+l["failed"] {
		t.Errorf("accepted %d != completed %d + failed %d", l["accepted"], l["completed"], l["failed"])
	}
	// Queue-wait and run histograms record leaders only: coalesced
	// followers never wait for a session or run one.
	if leaders := l["accepted"] - l["coalesced"]; l["waits"] != leaders || l["runs"] != leaders {
		t.Errorf("histogram counts (wait %d, run %d) disagree with leaders %d (accepted %d - coalesced %d)",
			l["waits"], l["runs"], leaders, l["accepted"], l["coalesced"])
	}
	if l["http:200"] != l["completed"] {
		t.Errorf("http 200s %d != completed jobs %d", l["http:200"], l["completed"])
	}
	if l["cells"] <= 0 {
		t.Errorf("cells_total = %d, want > 0", l["cells"])
	}
}

// TestServerSlowSessionFault exercises the SlowSession inject point:
// with the stall armed, the queue wait of a request behind another
// image's run grows past the injected delay.
func TestServerSlowSessionFault(t *testing.T) {
	runEndings(t, endingRow{name: "a request behind a stalled lease", want: servedVTK,
		moved: mv("accepted", 2, "completed", 2, "recorded", 2, "waits", 2),
		act: func(t *testing.T, r *endingRig) answer {
			defer faultinject.Enable(faultinject.New(faultinject.Config{
				Rates: map[faultinject.Point]float64{faultinject.SlowSession: 1},
				Delay: 50 * time.Millisecond,
			}))()
			first := make(chan answer, 1)
			go func() { first <- r.send("POST", "/v1/mesh", octet, nrrdBody(t, 7)) }()
			for end := time.Now().Add(5 * time.Second); r.srv.pool.Stats().Busy == 0 && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			a := r.mesh("")
			if (<-first).StatusCode != http.StatusOK || r.srv.mQueueWait.Sum() < 0.045 {
				t.Errorf("queue wait sum = %vs; the slow-session stall did not back up the queue", r.srv.mQueueWait.Sum())
			}
			return a
		}})
}
