//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	pi2m "repro"
	"repro/internal/img"
	"repro/internal/meshio"
)

// Sizes of the run shape. A block has a fixed op count, never a time
// box, so that every block of every run does the same work; the counts
// make a block three to four seconds on the two-core reference box, and
// up to half as much again when the host is slow.
const (
	libScale    = 96 // lib_mesh phantom edge, ~16-25k tets, ~0.25 s per Run
	srvScale    = 48 // daemon workloads' phantom edge, ~3-5k tets
	libCycles   = 5  // lib_mesh block = libCycles x 3 phantoms
	missCycles  = 28 // serve_miss block = missCycles x 3 phantoms
	hotRounds   = 8  // serve_hot block = hotRounds x 120 ops
	routeRounds = 6  // router_hot block = routeRounds x 120 ops
	hotBodies   = 4  // per key and round: body hits ...
	hotConds    = 1  // ... and conditional requests (80 % / 20 %)
	maxRadEdge  = 2.5
)

// clients is C of the run shape: serve_miss's closed-loop client
// count, the daemons' pool size and lib_mesh's thread count.
func clients() int { return min(runtime.NumCPU(), 4) }

// hotClients is the client count of the two hot workloads. A hot op
// costs the load generator (a ~100 KB upload, a ~300 KB body to read)
// about as much CPU as it costs the daemon, so with C clients on C
// cores half of every latency would be the generator queueing behind
// itself. Each client is given a core of its own instead.
func hotClients() int { return max(clients()/2, 1) }

var phantomNames = [3]string{"abdominal", "knee", "headneck"}

func phantom(i, scale int) *img.Image {
	switch i {
	case 0:
		return img.AbdominalPhantom(scale, scale, 2*scale/3)
	case 1:
		return img.KneePhantom(scale, scale, scale)
	default:
		return img.HeadNeckPhantom(scale, scale, scale)
	}
}

// nrrdInputs generates the three phantoms and encodes them as the NRRD
// bodies a client would upload.
func nrrdInputs(scale int) ([3][]byte, error) {
	var out [3][]byte
	for i := range out {
		var b bytes.Buffer
		if err := img.WriteNRRD(&b, phantom(i, scale)); err != nil {
			return out, err
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

// uniqueNRRD returns base with a fixed-width comment line after the
// magic: a new SHA-256 over identical voxels, so the daemon has never
// seen the image and does exactly the work it does for base.
func uniqueNRRD(base []byte, seed int64, serial int) []byte {
	nl := bytes.IndexByte(base, '\n') + 1
	tag := fmt.Sprintf("# bench %016x %08d\n", uint64(seed), serial)
	out := make([]byte, 0, len(base)+len(tag))
	out = append(out, base[:nl]...)
	out = append(out, tag...)
	return append(out, base[nl:]...)
}

// instance is one booted system under test.
type instance interface {
	// block runs one block, warm-up or measured, and returns its sample
	// and how many ops it attempted and how many failed.
	block() (s blockSample, attempted, failed int)
	// inflight is how many ops are in progress throughout a block.
	inflight() int
	peakRSSMiB() float64
	// check verifies outputs, outside every timer.
	check() error
	close()
}

type workload struct {
	name  string
	setup func(seed int64) (instance, error)
}

var workloads = []workload{
	{"lib_mesh", setupLib},
	{"serve_miss", func(seed int64) (instance, error) { return setupHTTP(seed, false, false) }},
	{"serve_hot", func(seed int64) (instance, error) { return setupHTTP(seed, true, false) }},
	{"router_hot", func(seed int64) (instance, error) { return setupHTTP(seed, true, true) }},
}

// ---- lib_mesh ----

type libInst struct {
	sess  *pi2m.Session
	nrrd  [3][]byte
	order []int // seeded phantom order of one cycle
}

func setupLib(seed int64) (instance, error) {
	in, err := nrrdInputs(libScale)
	if err != nil {
		return nil, err
	}
	sess, err := pi2m.NewSession(pi2m.WithThreads(clients()), pi2m.WithLivelockTimeout(time.Minute))
	if err != nil {
		return nil, err
	}
	li := &libInst{sess: sess, nrrd: in, order: rand.New(rand.NewSource(seed)).Perm(3)}
	if _, _, failed := li.block(); failed > 0 {
		li.close()
		return nil, fmt.Errorf("lib_mesh warm-up: %d ops failed", failed)
	}
	return li, nil
}

func (li *libInst) block() (s blockSample, attempted, failed int) {
	// Every op gets its own decoded *Image, so the session's EDT cache
	// (keyed by pointer) never hits. Decoding happens before the clock
	// starts: the workload is EDT + refinement and nothing else.
	var ims []*img.Image
	var kinds []int
	for c := 0; c < libCycles; c++ {
		for _, p := range li.order {
			im, err := img.ReadNRRD(bytes.NewReader(li.nrrd[p]))
			if err != nil {
				fmt.Fprintln(os.Stderr, "lib_mesh:", err)
				return s, 1, 1
			}
			ims = append(ims, im)
			kinds = append(kinds, p)
		}
	}
	cpu0, t0 := li.cpuSeconds(), time.Now()
	for i, im := range ims {
		ts := time.Now()
		res, err := li.sess.Run(context.Background(), im)
		lat := time.Since(ts).Seconds()
		if err != nil || res.Status != pi2m.StatusCompleted || res.Elements() == 0 {
			fmt.Fprintf(os.Stderr, "lib_mesh: op failed: err=%v\n", err)
			failed++
			continue
		}
		s.Lat = append(s.Lat, lat)
		s.Kind = append(s.Kind, kinds[i])
		s.Cells += int64(res.Elements())
	}
	s.Wall = time.Since(t0).Seconds()
	s.CPU = li.cpuSeconds() - cpu0
	return s, len(ims), failed
}

// One caller drives the one session; its threads are inside the op.
func (li *libInst) inflight() int { return 1 }

func (li *libInst) cpuSeconds() float64 { return selfCPUSeconds() }

func (li *libInst) peakRSSMiB() float64 {
	v, _ := pidPeakRSSMiB(os.Getpid())
	return v
}

// check meshes each phantom once more and validates the mesh. It uses
// a fresh session per phantom: Mesh.Check sweeps whole arena chunks, and
// a warm session's recycled chunks still hold the previous run's cells
// past the current high-water mark, which the sweep reports as
// violations that are not there.
func (li *libInst) check() error {
	for p := range li.nrrd {
		if err := checkLibMesh(li.nrrd[p]); err != nil {
			return fmt.Errorf("%s: %v", phantomNames[p], err)
		}
	}
	return nil
}

func checkLibMesh(nrrd []byte) error {
	im, err := img.ReadNRRD(bytes.NewReader(nrrd))
	if err != nil {
		return err
	}
	sess, err := pi2m.NewSession(pi2m.WithThreads(clients()), pi2m.WithLivelockTimeout(time.Minute))
	if err != nil {
		return err
	}
	defer sess.Close()
	res, err := sess.Run(context.Background(), im)
	if err != nil {
		return err
	}
	if err := res.Mesh.Check(); err != nil {
		return fmt.Errorf("delaunay.Check: %v", err)
	}
	if q := res.Quality(); q.MaxRadiusEdge <= 0 || q.MaxRadiusEdge > maxRadEdge {
		return fmt.Errorf("radius-edge ratio %.3f outside (0, %g]", q.MaxRadiusEdge, maxRadEdge)
	}
	return nil
}

func (li *libInst) close() { li.sess.Close() }

// ---- the three daemon workloads ----

// op is one request of a block.
type op struct {
	query string
	body  []byte
	cond  bool // send If-None-Match with the key's learned entity tag
	key   int  // index into httpInst.exp
}

// kind identifies ops that make the daemon do identical work.
func (o op) kind() int {
	if o.cond {
		return 2*o.key + 1
	}
	return 2 * o.key
}

// expect is what every answer for a key must look like. Zero fields
// are learned from the first answer (during set-up) and enforced from
// then on.
type expect struct {
	cells int64
	etag  string
}

// answer is what a client observed for one op.
type answer struct {
	end      time.Time
	lat      float64
	status   int
	cells    int64 // -1: no CELLS line
	bodyLen  int
	etag     string
	node     string
	brownout string
	err      error
}

type httpInst struct {
	dir     string
	procs   []*proc
	base    string // where ops are sent
	client  *http.Client
	seed    int64
	inputs  [3][]byte
	hot     bool
	router  bool
	keys    []keySpec
	nclient int      // closed-loop clients sending ops
	exp     []expect // per key
	round   []op     // hot: one seeded round of 24 x (4 body + 1 cond)
	order   []int    // miss: seeded phantom order of one cycle
	serial  int      // miss: images made so far
}

// keySpec names one (image, variant) pair: a phantom and the quality
// knobs requested for it (0 = the daemon's default).
type keySpec struct {
	phantom int
	re, fa  float64
}

func (k keySpec) query() string {
	if k.re == 0 {
		return ""
	}
	return fmt.Sprintf("max_radius_edge=%g&min_facet_angle=%g", k.re, k.fa)
}

// missKeys are the three phantoms at default quality; hotKeys are the
// 24 cached keys, three phantoms times eight re=/fa= variants.
func missKeys() []keySpec { return []keySpec{{phantom: 0}, {phantom: 1}, {phantom: 2}} }

func hotKeys() []keySpec {
	var ks []keySpec
	for p := 0; p < 3; p++ {
		for _, re := range []float64{2, 2.5, 3, 4} {
			for _, fa := range []float64{30, 20} {
				ks = append(ks, keySpec{p, re, fa})
			}
		}
	}
	return ks
}

func setupHTTP(seed int64, hot, router bool) (inst instance, err error) {
	in, err := nrrdInputs(srvScale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	C := clients()
	h := &httpInst{
		dir: dir, seed: seed, inputs: in, hot: hot, router: router, nclient: C,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: C,
			DisableCompression:  true,
		}},
	}
	defer func() {
		if err != nil {
			h.close()
		}
	}()

	backends := 1
	if router {
		backends = 2
	}
	var urls []string
	for i := 0; i < backends; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := startProc("pi2md", filepath.Join(dir, fmt.Sprintf("pi2md%d.log", i)),
			"-addr", addr, "-pool", strconv.Itoa(C), "-workers", "1",
			"-cache-dir", filepath.Join(dir, "cache"))
		if err != nil {
			return nil, err
		}
		h.procs = append(h.procs, p)
		url := "http://" + addr
		if err := p.waitReady(func() bool { return getOK(h.client, url+"/readyz") }); err != nil {
			return nil, err
		}
		urls = append(urls, url)
	}
	h.base = urls[0]
	if router {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := startProc("pi2mrouter", filepath.Join(dir, "pi2mrouter.log"),
			"-addr", addr, "-backends", urls[0]+","+urls[1])
		if err != nil {
			return nil, err
		}
		h.procs = append(h.procs, p)
		h.base = "http://" + addr
		// Ready means both backends passed their first probe and are in
		// the ring, not merely that one is.
		inRing := func() bool {
			var st struct {
				RingMembers []string `json:"ring_members"`
			}
			return getJSON(h.client, h.base+"/v1/stats", &st) == nil && len(st.RingMembers) == 2
		}
		if err := p.waitReady(inRing); err != nil {
			return nil, err
		}
	}

	h.keys, h.order = missKeys(), rand.New(rand.NewSource(seed)).Perm(3)
	if hot {
		h.keys = hotKeys()
	}
	h.exp = make([]expect, len(h.keys))
	if hot {
		// Pre-fill: one cold request per key. The answers' cell counts
		// and entity tags become the expectations.
		var fill []op
		for i, k := range h.keys {
			fill = append(fill, op{query: k.query(), body: in[k.phantom], key: i})
		}
		if _, _, failed := h.runOps(fill); failed > 0 {
			return nil, fmt.Errorf("pre-fill: %d of %d requests failed", failed, len(fill))
		}
		for _, f := range fill {
			for i := 0; i < hotBodies+hotConds; i++ {
				f.cond = i >= hotBodies
				h.round = append(h.round, f)
			}
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(h.round), func(i, j int) {
			h.round[i], h.round[j] = h.round[j], h.round[i]
		})
		h.nclient = hotClients() // the pre-fill meshes; it used all C
	}
	if _, _, failed := h.block(); failed > 0 {
		return nil, fmt.Errorf("warm-up: %d ops failed", failed)
	}
	return h, nil
}

func (h *httpInst) block() (blockSample, int, int) {
	var ops []op
	switch {
	case h.hot:
		rounds := hotRounds
		if h.router {
			rounds = routeRounds
		}
		for r := 0; r < rounds; r++ {
			ops = append(ops, h.round...)
		}
	default:
		for c := 0; c < missCycles; c++ {
			for _, p := range h.order {
				ops = append(ops, op{body: uniqueNRRD(h.inputs[p], h.seed, h.serial), key: p})
				h.serial++
			}
		}
	}
	return h.runOps(ops)
}

// runOps sends ops closed-loop from C clients, each taking the next
// unsent op when its previous one has been answered in full, then
// judges every answer. The measured window ends when the first client
// finds no op left: from then on fewer than C requests are in flight,
// and an op that finishes later ran partly alone. Such ops are judged
// but not measured.
func (h *httpInst) runOps(ops []op) (s blockSample, attempted, failed int) {
	answers := make([]answer, len(ops))
	var once sync.Once
	var idleAt time.Time
	var idleCPU float64
	cpu0, t0 := h.cpuSeconds(), time.Now()
	closedLoop(h.nclient, len(ops),
		func(i int, buf *bytes.Buffer) { answers[i] = h.do(ops[i], buf) },
		func() { once.Do(func() { idleAt, idleCPU = time.Now(), h.cpuSeconds() }) })
	s.Wall = idleAt.Sub(t0).Seconds()
	s.CPU = idleCPU - cpu0

	for i, a := range answers {
		if why := h.judge(ops[i], a); why != "" {
			if failed++; failed <= 5 {
				fmt.Fprintf(os.Stderr, "op %d (key %d) failed: %s\n", i, ops[i].key, why)
			}
			continue
		}
		if a.end.After(idleAt) {
			continue
		}
		s.Lat = append(s.Lat, a.lat)
		s.Kind = append(s.Kind, ops[i].kind())
		if a.status == http.StatusOK {
			s.Cells += a.cells
		}
	}
	return s, len(ops), failed
}

// closedLoop runs each(0..n-1) from the given number of clients: every
// client takes the next index when its previous call has returned, and
// calls idle once it finds none left. Each client owns one buffer.
func closedLoop(clients, n int, each func(i int, buf *bytes.Buffer), idle func()) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					idle()
					return
				}
				each(i, &buf)
			}
		}()
	}
	wg.Wait()
}

// do sends one op and reads the whole answer. Latency runs from the
// start of the request to the last body byte.
func (h *httpInst) do(o op, buf *bytes.Buffer) answer {
	url := h.base + "/v1/mesh"
	if o.query != "" {
		url += "?" + o.query
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(o.body))
	if err != nil {
		return answer{err: err}
	}
	if o.cond {
		req.Header.Set("If-None-Match", h.exp[o.key].etag)
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return answer{err: err}
	}
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	end := time.Now()
	return answer{
		end:      end,
		lat:      end.Sub(t0).Seconds(),
		status:   resp.StatusCode,
		cells:    vtkCells(buf.Bytes()),
		bodyLen:  buf.Len(),
		etag:     resp.Header.Get("ETag"),
		node:     resp.Header.Get("X-Pi2md-Node"),
		brownout: resp.Header.Get("X-Pi2md-Brownout"),
		err:      err,
	}
}

// vtkCells reads n from the "CELLS n m" line of a VTK body, -1 if
// there is none.
func vtkCells(body []byte) int64 {
	const marker = "\nCELLS "
	i := bytes.Index(body, []byte(marker))
	if i < 0 {
		return -1
	}
	rest := body[i+len(marker):]
	if j := bytes.IndexByte(rest, ' '); j > 0 {
		if n, err := strconv.ParseInt(string(rest[:j]), 10, 64); err == nil {
			return n
		}
	}
	return -1
}

// judge returns why an answer is a failed op, or "" if it is good. The
// first good body for a key fixes what the key's later answers must
// be.
func (h *httpInst) judge(o op, a answer) string {
	e := &h.exp[o.key]
	switch {
	case a.err != nil:
		return a.err.Error()
	case a.brownout != "":
		return "unexpected X-Pi2md-Brownout: " + a.brownout
	case o.cond:
		if a.status != http.StatusNotModified {
			return fmt.Sprintf("conditional request answered %d, want 304", a.status)
		}
		if a.bodyLen != 0 {
			return fmt.Sprintf("304 with a %d-byte body", a.bodyLen)
		}
		if a.etag != e.etag {
			return fmt.Sprintf("304 ETag %q, want %q", a.etag, e.etag)
		}
		return ""
	case a.status != http.StatusOK:
		return fmt.Sprintf("status %d", a.status)
	case a.cells <= 0:
		return "body has no CELLS line"
	case a.etag == "":
		return "no ETag"
	case h.router && a.node == "":
		return "no X-Pi2md-Node through the router"
	}
	if e.cells == 0 {
		e.cells = a.cells
	}
	if a.cells != e.cells {
		return fmt.Sprintf("%d cells, want %d", a.cells, e.cells)
	}
	if h.hot {
		if e.etag == "" {
			e.etag = a.etag
		}
		if a.etag != e.etag {
			return fmt.Sprintf("ETag %q, want %q", a.etag, e.etag)
		}
	}
	return ""
}

func (h *httpInst) inflight() int { return h.nclient }

func (h *httpInst) cpuSeconds() float64 {
	total := 0.0
	for _, p := range h.procs {
		v, _ := p.cpuSeconds()
		total += v
	}
	return total
}

func (h *httpInst) peakRSSMiB() float64 {
	total := 0.0
	for _, p := range h.procs {
		v, _ := p.peakRSSMiB()
		total += v
	}
	return total
}

// refCells meshes im in-process with one thread and the given knobs
// (0 = default): the cell count the daemon, which also runs W=1, must
// deliver for the same image and variant.
func refCells(im *img.Image, re, fa float64) (int64, error) {
	s, err := pi2m.NewSession(pi2m.WithThreads(1), pi2m.WithMaxRadiusEdge(re),
		pi2m.WithMinFacetAngle(fa), pi2m.WithLivelockTimeout(2*time.Minute))
	if err != nil {
		return 0, err
	}
	defer s.Close()
	res, err := s.Run(context.Background(), im)
	if err != nil {
		return 0, err
	}
	return int64(res.Elements()), nil
}

// check re-requests every key once, parses the whole body and compares
// its cell count with an independent in-process W=1 run; on the hot
// workloads it also requires the pre-fill's entity tag and a body-less
// 304 for it.
func (h *httpInst) check() error {
	ops := make([]op, len(h.keys))
	for i, k := range h.keys {
		ops[i] = op{query: k.query(), body: h.inputs[k.phantom], key: i}
		if !h.hot {
			ops[i].body = uniqueNRRD(ops[i].body, h.seed, h.serial)
			h.serial++
		}
	}

	errs := make([]error, len(ops))
	closedLoop(clients(), len(ops),
		func(i int, buf *bytes.Buffer) { errs[i] = h.checkKey(ops[i], buf) },
		func() {})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("key %d (%s %s): %v", i, phantomNames[h.keys[i].phantom], ops[i].query, err)
		}
	}
	return nil
}

func (h *httpInst) checkKey(o op, buf *bytes.Buffer) error {
	k := h.keys[o.key]
	a := h.do(o, buf)
	if why := h.judge(o, a); why != "" {
		return fmt.Errorf("%s", why)
	}
	raw, err := meshio.ReadVTK(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("ReadVTK: %v", err)
	}
	im, err := img.ReadNRRD(bytes.NewReader(h.inputs[k.phantom]))
	if err != nil {
		return err
	}
	want, err := refCells(im, k.re, k.fa)
	if err != nil {
		return fmt.Errorf("reference run: %v", err)
	}
	if int64(len(raw.Cells)) != want {
		return fmt.Errorf("%d cells parsed, in-process W=1 run gives %d", len(raw.Cells), want)
	}
	if h.hot {
		o.cond = true
		if why := h.judge(o, h.do(o, buf)); why != "" {
			return fmt.Errorf("%s", why)
		}
	}
	return nil
}

func (h *httpInst) close() {
	for _, p := range h.procs {
		p.stop()
	}
	h.client.CloseIdleConnections()
	os.RemoveAll(h.dir)
}
