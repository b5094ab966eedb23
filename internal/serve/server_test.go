package serve

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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
	t.Helper()
	im, err := img.ReadNRRD(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, "NRRD0004")
	fmt.Fprintln(&b, "type: uint8")
	fmt.Fprintln(&b, "dimension: 3")
	fmt.Fprintf(&b, "sizes: %d %d %d\n", im.NX, im.NY, im.NZ)
	fmt.Fprintf(&b, "spacings: %g %g %g\n", im.Spacing.X, im.Spacing.Y, im.Spacing.Z)
	fmt.Fprintln(&b, "encoding: gzip")
	fmt.Fprintln(&b)
	gz := gzip.NewWriter(&b)
	vox := make([]byte, 0, im.NumVoxels())
	for k := 0; k < im.NZ; k++ {
		for j := 0; j < im.NY; j++ {
			for i := 0; i < im.NX; i++ {
				vox = append(vox, byte(im.At(i, j, k)))
			}
		}
	}
	if _, err := gz.Write(vox); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
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

func post(t *testing.T, c *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// metricValue scans a Prometheus exposition for a sample line.
func metricValue(t testing.TB, exposition, sample string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if name, val, ok := strings.Cut(line, " "); ok && name == sample {
			var f float64
			if _, err := fmt.Sscanf(val, "%g", &f); err == nil {
				return f
			}
		}
	}
	return 0
}

// TestServerEndToEnd is the acceptance test of the serving layer: an
// in-process server over a pool of 2 sessions takes 8 concurrent mesh
// requests, observes warm-session cache hits, suffers injected
// queue-full rejections, and reports consistent counters on /metrics
// and /v1/stats.
func TestServerEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2, QueueDepth: 16})
	client := ts.Client()
	body := nrrdBody(t, 12)

	// Phase 1 — warm-up: the same payload twice, sequentially. The
	// second request must be routed to the warm session and reuse its
	// cached distance transform.
	for i := 0; i < 2; i++ {
		code, out := post(t, client, ts.URL+"/v1/mesh", body)
		if code != http.StatusOK {
			t.Fatalf("warm-up request %d: status %d: %s", i, code, out)
		}
		if _, err := meshio.ReadVTK(bytes.NewReader(out)); err != nil {
			t.Fatalf("warm-up response %d is not parseable VTK: %v", i, err)
		}
	}
	var warm bytes.Buffer
	srv.Registry().WritePrometheus(&warm)
	if hits := int64(metricValue(t, warm.String(), "pi2md_edt_cache_hits_total")); hits < 1 {
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
			code, out := post(t, client, ts.URL+"/v1/mesh", body)
			if code == http.StatusOK {
				if !bytes.Contains(out, []byte("CELL_TYPES")) {
					t.Error("200 response is not a VTK mesh")
				}
			}
			mu.Lock()
			byStatus[code]++
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
	code, metricsOut := post(t, client, ts.URL+"/v1/mesh", nil)
	_ = metricsOut
	if code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", code)
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(expo)

	completed := metricValue(t, text, "pi2md_jobs_completed_total")
	accepted := metricValue(t, text, "pi2md_jobs_accepted_total")
	failed := metricValue(t, text, "pi2md_jobs_failed_total")
	coalesced := metricValue(t, text, "pi2md_coalesced_jobs_total")
	rejectedFull := metricValue(t, text, `pi2md_jobs_rejected_total{reason="queue_full"}`)
	edtHits := metricValue(t, text, "pi2md_edt_cache_hits_total")
	warmRuns := metricValue(t, text, "pi2md_warm_runs_total")
	waits := metricValue(t, text, "pi2md_queue_wait_seconds_count")
	runs := metricValue(t, text, "pi2md_run_seconds_count")
	ok200 := metricValue(t, text, `pi2md_http_requests_total{code="200"}`)
	cells := metricValue(t, text, "pi2md_cells_total")

	wantCompleted := float64(2 + storm - 2) // warm-up + storm successes
	if completed != wantCompleted {
		t.Errorf("jobs_completed_total = %v, want %v", completed, wantCompleted)
	}
	if rejectedFull != 2 {
		t.Errorf("jobs_rejected_total{queue_full} = %v, want 2", rejectedFull)
	}
	if edtHits < 1 {
		t.Errorf("edt_cache_hits_total = %v, want >= 1", edtHits)
	}
	if warmRuns < 1 {
		t.Errorf("warm_runs_total = %v, want >= 1", warmRuns)
	}
	if accepted != completed+failed {
		t.Errorf("accepted %v != completed %v + failed %v", accepted, completed, failed)
	}
	// Queue-wait and run histograms record leaders only: coalesced
	// followers never wait for a session or run one.
	if leaders := accepted - coalesced; waits != leaders || runs != leaders {
		t.Errorf("histogram counts (wait %v, run %v) disagree with leaders %v (accepted %v - coalesced %v)",
			waits, runs, leaders, accepted, coalesced)
	}
	if ok200 != completed {
		t.Errorf("http 200s %v != completed jobs %v", ok200, completed)
	}
	if cells <= 0 {
		t.Errorf("cells_total = %v, want > 0", cells)
	}

	// /v1/stats must agree with /metrics.
	resp, err = client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Completed != int64(completed) || st.RejectedFull != int64(rejectedFull) {
		t.Errorf("/v1/stats (completed %d, rejected %d) disagrees with /metrics (%v, %v)",
			st.Completed, st.RejectedFull, completed, rejectedFull)
	}
	if st.Pool.Size != 2 {
		t.Errorf("pool size = %d, want 2", st.Pool.Size)
	}
	if st.Pool.Sessions.WarmEDTHits < 1 {
		t.Errorf("pool sessions report %d EDT hits, want >= 1", st.Pool.Sessions.WarmEDTHits)
	}
	if len(st.RecentRuns) == 0 {
		t.Error("no recent runs in /v1/stats")
	}
}

// TestServerRoundTripReaderWriter drives NRRD → mesh → VTK and OFF
// entirely through io.Reader/io.Writer paths — the request body in, a
// parseable mesh out, no temp files — including a gzip-encoded NRRD
// under the server's size cap.
func TestServerRoundTripReaderWriter(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1, MaxRequestBytes: 1 << 20})
	client := ts.Client()
	raw := nrrdBody(t, 12)

	// Raw NRRD → VTK: parse the response back and sanity-check it.
	code, out := post(t, client, ts.URL+"/v1/mesh?format=vtk", raw)
	if code != http.StatusOK {
		t.Fatalf("vtk: status %d: %s", code, out)
	}
	rm, err := meshio.ReadVTK(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("parsing VTK response: %v", err)
	}
	if len(rm.Cells) == 0 || len(rm.Verts) == 0 {
		t.Fatalf("VTK round-trip lost the mesh: %d cells, %d verts", len(rm.Cells), len(rm.Verts))
	}
	if len(rm.Labels) != len(rm.Cells) {
		t.Fatalf("VTK round-trip lost tissue labels: %d labels for %d cells", len(rm.Labels), len(rm.Cells))
	}

	// The same volume gzip-encoded must produce the identical mesh
	// (same voxels, same session template, sequential determinism).
	gzBody := gzipNRRDBody(t, raw)
	if len(gzBody) >= len(raw) {
		t.Fatalf("gzip NRRD (%d bytes) is not smaller than raw (%d)", len(gzBody), len(raw))
	}
	code, out2 := post(t, client, ts.URL+"/v1/mesh?format=vtk", gzBody)
	if code != http.StatusOK {
		t.Fatalf("gzip vtk: status %d: %s", code, out2)
	}
	rm2, err := meshio.ReadVTK(bytes.NewReader(out2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rm2.Cells) != len(rm.Cells) {
		t.Errorf("gzip round-trip: %d cells, raw produced %d", len(rm2.Cells), len(rm.Cells))
	}

	// OFF export of the boundary.
	code, off := post(t, client, ts.URL+"/v1/mesh?format=off", raw)
	if code != http.StatusOK {
		t.Fatalf("off: status %d: %s", code, off)
	}
	if !bytes.HasPrefix(off, []byte("OFF")) {
		t.Fatalf("OFF response does not start with OFF header: %.40s", off)
	}
}

// TestServerHostileInputs covers the abuse paths: oversized bodies
// against the size cap, a gzip bomb that decodes past its declared
// voxel count, junk bytes, and bad parameters.
func TestServerHostileInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1, MaxRequestBytes: 4 << 10})
	client := ts.Client()

	// A valid-but-large NRRD over the request cap → 413.
	big := nrrdBody(t, 24) // ~14k voxels > 4k cap
	code, _ := post(t, client, ts.URL+"/v1/mesh", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", code)
	}

	// A gzip-encoded NRRD whose stream inflates past the declared
	// sizes: the bounded reader must reject it without inflating the
	// whole bomb. The header fits the cap; the payload lies.
	var bomb bytes.Buffer
	fmt.Fprintln(&bomb, "NRRD0004")
	fmt.Fprintln(&bomb, "type: uint8")
	fmt.Fprintln(&bomb, "dimension: 3")
	fmt.Fprintln(&bomb, "sizes: 4 4 4") // declares 64 voxels
	fmt.Fprintln(&bomb, "spacings: 1 1 1")
	fmt.Fprintln(&bomb, "encoding: gzip")
	fmt.Fprintln(&bomb)
	gz := gzip.NewWriter(&bomb)
	gz.Write(make([]byte, 2048)) // inflates to 32x the declaration
	gz.Close()
	code, out := post(t, client, ts.URL+"/v1/mesh", bomb.Bytes())
	if code != http.StatusBadRequest {
		t.Errorf("gzip bomb: status %d (%s), want 400", code, out)
	}

	// Junk bytes → 400 from the NRRD parser.
	code, _ = post(t, client, ts.URL+"/v1/mesh", []byte("not an image"))
	if code != http.StatusBadRequest {
		t.Errorf("junk body: status %d, want 400", code)
	}

	// Bad query parameters → 400 before any body processing.
	code, _ = post(t, client, ts.URL+"/v1/mesh?format=stl", nrrdBody(t, 8))
	if code != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", code)
	}
	code, _ = post(t, client, ts.URL+"/v1/mesh?timeout=banana", nrrdBody(t, 8))
	if code != http.StatusBadRequest {
		t.Errorf("bad timeout: status %d, want 400", code)
	}
}

// TestServerDeadlineRejection holds the pool's only session and
// verifies a tightly-bounded request is rejected 503 with the
// deadline reason rather than waiting forever.
func TestServerDeadlineRejection(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()

	lease, err := srv.Pool().Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/mesh?timeout=50ms", "application/octet-stream",
		bytes.NewReader(nrrdBody(t, 8)))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-bound request: status %d (%s), want 503", resp.StatusCode, out)
	}
	// A deadline rejection is a capacity signal; it must invite a retry.
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline rejection carries no Retry-After header")
	}
	if srv.mRejected.Value("deadline") != 1 {
		t.Fatalf("deadline rejections = %d, want 1", srv.mRejected.Value("deadline"))
	}
	if n := srv.mRejected.Value("canceled"); n != 0 {
		t.Fatalf("canceled rejections = %d, want 0 (deadline expiry misclassified)", n)
	}
	lease.Release()

	// With the session back, the same request succeeds.
	code, _ := post(t, client, ts.URL+"/v1/mesh?timeout=30s", nrrdBody(t, 8))
	if code != http.StatusOK {
		t.Fatalf("request after release: status %d, want 200", code)
	}
}

// TestServerQualityOverrides verifies per-request knobs reach the run:
// a coarser delta must produce fewer tetrahedra than the default.
func TestServerQualityOverrides(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()
	body := nrrdBody(t, 16)

	count := func(url string) int {
		code, out := post(t, client, url, body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, code, out)
		}
		rm, err := meshio.ReadVTK(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		return len(rm.Cells)
	}

	fine := count(ts.URL + "/v1/mesh")
	coarse := count(ts.URL + "/v1/mesh?delta=6")
	if coarse >= fine {
		t.Errorf("delta=6 produced %d cells, default produced %d: override did not coarsen", coarse, fine)
	}
	capped := count(ts.URL + "/v1/mesh?max_elements=50")
	if capped > 200 {
		t.Errorf("max_elements=50 produced %d cells", capped)
	}

	// A below-bound radius-edge ratio is rejected up front: it could
	// refine forever, and a server must not accept that.
	code, _ := post(t, client, ts.URL+"/v1/mesh?max_radius_edge=1.5", body)
	if code != http.StatusBadRequest {
		t.Errorf("below-bound radius-edge: status %d, want 400", code)
	}
}

// TestServerDrain verifies the graceful-drain contract: draining
// rejects new work with 503, /readyz flips unready while /healthz
// stays alive (liveness vs readiness), and in-flight jobs complete.
func TestServerDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()
	body := nrrdBody(t, 12)

	code, _ := post(t, client, ts.URL+"/v1/mesh", body)
	if code != http.StatusOK {
		t.Fatalf("pre-drain request failed: %d", code)
	}
	resp, err := client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz before drain: %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Liveness is not readiness: the process still answers (an
	// orchestrator must not kill it mid-drain), but it should stop
	// receiving new traffic.
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while drained: %d, want 200 (liveness)", resp.StatusCode)
	}
	resp, err = client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while drained: %d, want 503", resp.StatusCode)
	}
	code, _ = post(t, client, ts.URL+"/v1/mesh", body)
	if code != http.StatusServiceUnavailable {
		t.Errorf("mesh while drained: %d, want 503", code)
	}
	if srv.mRejected.Value("draining") != 1 {
		t.Errorf("draining rejections = %d, want 1", srv.mRejected.Value("draining"))
	}
}

// TestServerSlowSessionFault exercises the SlowSession inject point:
// with the stall armed, queue wait for a second request grows past
// the injected delay.
func TestServerSlowSessionFault(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()
	// Two distinct payloads: identical bodies would coalesce into one
	// run and the follower would never enter the session queue.
	bodies := [][]byte{nrrdBody(t, 12), nrrdBody(t, 13)}

	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Seed:  7,
		Rates: map[faultinject.Point]float64{faultinject.SlowSession: 1},
		Delay: 50 * time.Millisecond,
	}))
	defer restore()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			if code, out := post(t, client, ts.URL+"/v1/mesh", body); code != http.StatusOK {
				t.Errorf("status %d: %s", code, out)
			}
		}(bodies[i])
	}
	wg.Wait()
	faultinject.Disable()

	if srv.mQueueWait.Sum() < 0.045 {
		t.Errorf("queue wait sum = %vs; the slow-session stall did not back up the queue", srv.mQueueWait.Sum())
	}
}

// TestPinMeshPath pins what /v1/mesh answers on the paths no other test
// looks at byte for byte: a conditional whose validator names the other
// format, the oversized and empty uploads, and a cached pair on a
// draining node — refused to a meshing request, served to a cache-only
// one. It runs with the brownout controller off and on (the daemon's
// default): an idle controller must not show.
func TestPinMeshPath(t *testing.T) {
	for _, brownout := range []bool{false, true} {
		cache := openTestCache(t, t.TempDir())
		srv, ts := newTestServer(t, Config{PoolSize: 1, Cache: cache, Brownout: brownout, MaxRequestBytes: 4 << 10})
		c := ts.Client()
		body := nrrdBody(t, 7)
		const octet = "application/octet-stream"
		mesh := ts.URL + "/v1/mesh"
		fetch := func(url string) ([]byte, string) {
			t.Helper()
			resp, err := c.Post(url, octet, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
			}
			return out, resp.Header.Get("ETag")
		}
		vtk, vtkTag := fetch(mesh)
		off, offTag := fetch(mesh + "?format=off")
		if !strings.HasSuffix(vtkTag, `-vtk"`) || offTag != strings.TrimSuffix(vtkTag, `-vtk"`)+`-off"` {
			t.Fatalf("entity tags %q / %q: want one blob tag with the format folded in", vtkTag, offTag)
		}

		doPin(t, c, "repeat hit", pinReq(t, "POST", mesh, octet, body),
			pin{status: 200, etag: vtkTag, ctype: "text/vtk", sha: sha(vtk)})
		doPin(t, c, "conditional, matching", pinReq(t, "POST", mesh, octet, body, "If-None-Match", vtkTag),
			pin{status: 304, etag: vtkTag, sha: sha(nil)})
		doPin(t, c, "off conditional against the vtk entity", pinReq(t, "POST", mesh+"?format=off", octet, body, "If-None-Match", vtkTag),
			pin{status: 200, etag: offTag, ctype: "model/off", sha: sha(off)})
		doPin(t, c, "vtk conditional against the off entity", pinReq(t, "POST", mesh, octet, body, "If-None-Match", offTag),
			pin{status: 200, etag: vtkTag, ctype: "text/vtk", sha: sha(vtk)})
		doPin(t, c, "oversized upload", pinReq(t, "POST", mesh, octet, nrrdBody(t, 24)),
			pin{status: 413, code: wire.CodeTooLarge, ctype: "application/json",
				sha: sha(envelope(wire.CodeTooLarge, "request body exceeds the 4096 byte cap"))})
		doPin(t, c, "empty upload", pinReq(t, "POST", mesh, octet, nil),
			pin{status: 400, code: wire.CodeBadRequest, ctype: "application/json",
				sha: sha(envelope(wire.CodeBadRequest, "empty body: expected an NRRD label image"))})

		srv.AnnounceDrain(0)
		doPin(t, c, "cached pair while draining", pinReq(t, "POST", mesh, octet, body),
			pin{status: 503, code: wire.CodeDraining, ctype: "application/json",
				sha: sha(envelope(wire.CodeDraining, "serve: server draining"))})
		doPin(t, c, "conditional while draining", pinReq(t, "POST", mesh, octet, body, "If-None-Match", vtkTag),
			pin{status: 304, etag: vtkTag, sha: sha(nil)})
		if n := srv.mRejected.Value("draining"); n != 1 {
			t.Errorf("brownout=%v: draining rejections = %d, want 1", brownout, n)
		}
	}
}
