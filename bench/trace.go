//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	pi2m "repro"
	"repro/internal/arena"
	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/edt"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/meshio"
	"repro/internal/predicates"
	"repro/internal/router"
	"repro/internal/serve"
)

// The traced run is one in-process, single-client pass over every
// layer. Each call into a layer's public function is wrapped in a span;
// the per-layer metrics are span durations (medians where a call is
// repeated) and the layers' own public counters. Nothing here is
// compared against a bound.

var traceOut = filepath.Join(outDir, "trace.json")

// tracer keeps spans in memory until the run ends.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
	reqs   int
}

// newReq returns a fresh request identifier.
func (t *tracer) newReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// do times fn as a span named name under parent (0 = root) for request
// req, and returns the span's id and duration.
func (t *tracer) do(name string, parent, req int, fn func()) (int, time.Duration) {
	start := time.Since(t.origin)
	fn()
	end := time.Since(t.origin)
	return t.add(name, parent, req, start, end), end - start
}

// add records a span whose times were taken elsewhere: a stage the
// program under test timed itself and reports through a public
// counter. It is placed at the start of its parent's interval.
func (t *tracer) add(name string, parent, req int, start, end time.Duration) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// medianOf runs fn n times as spans and returns the median duration in
// seconds.
func (t *tracer) medianOf(n int, name string, fn func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		_, d := t.do(name, 0, 0, fn)
		ds[i] = d.Seconds()
	}
	return median(ds)
}

// traceRun carries the state the layer sections share.
type traceRun struct {
	tr      *tracer
	rng     *rand.Rand
	metrics map[string]metric
	order   []string
	dir     string

	mu        sync.Mutex // the coalescing section sends requests concurrently
	attempted int
	failed    int

	// The serving chain is reconciled on one image: the scale-48 knee
	// phantom, the largest of the three the daemon workloads upload.
	body []byte             // its NRRD encoding
	im   *img.Image         // decoded
	snap *core.MeshSnapshot // its W=1 default-quality mesh
}

func (r *traceRun) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
	r.order = append(r.order, name)
}

// op counts one attempted operation and whether it failed.
func (r *traceRun) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "trace:", err)
	}
}

func runTrace(seed int64) (result, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return result{}, fmt.Errorf("run from the module root: %v", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(buildDir, "trace-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	r := &traceRun{
		tr:      &tracer{on: true, origin: time.Now()},
		rng:     rand.New(rand.NewSource(seed)),
		metrics: map[string]metric{},
		dir:     dir,
	}
	for _, section := range []func() error{
		r.predicates, r.delaunay, r.edt, r.core, r.imgAndMeshio,
		r.cachestore, r.serve, r.fem, r.router, r.overhead,
	} {
		if err := section(); err != nil {
			return result{}, err
		}
	}
	if err := writeJSON(traceOut, r.tr.spans); err != nil {
		return result{}, err
	}
	fmt.Printf("== traced per-layer run  seed=%d  %d spans -> %s\n", seed, len(r.tr.spans), traceOut)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("  %-30s %16.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  ops: attempted %d, failed %d\n", r.attempted, r.failed)
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

var predSink int

// predicates times the two exact predicates over 10^5 seeded tuples,
// half of them degenerate lattice points (coplanar / cospherical cube
// corners, what voxel images produce) that defeat the float filter.
func (r *traceRun) predicates() error {
	const n = 100_000
	corner := func(i int) geom.Vec3 {
		return geom.Vec3{X: float64(i & 1), Y: float64(i >> 1 & 1), Z: float64(i >> 2 & 1)}
	}
	random := func() geom.Vec3 {
		return geom.Vec3{X: r.rng.Float64(), Y: r.rng.Float64(), Z: r.rng.Float64()}
	}
	pts := make([][5]geom.Vec3, n)
	for i := range pts {
		if i%2 == 0 {
			for j := range pts[i] {
				pts[i][j] = random()
			}
			continue
		}
		// Four corners of one cube face are coplanar; any five corners
		// are cospherical. A lattice offset keeps the coordinates exact.
		off := geom.Vec3{X: float64(r.rng.Intn(64)), Y: float64(r.rng.Intn(64)), Z: float64(r.rng.Intn(64))}
		perm := r.rng.Perm(8)
		face := [4]int{0, 1, 3, 2}
		for j := range pts[i] {
			c := corner(perm[j])
			if j < 4 && i%4 == 1 {
				c = corner(face[j])
			}
			pts[i][j] = geom.Vec3{X: c.X + off.X, Y: c.Y + off.Y, Z: c.Z + off.Z}
		}
	}
	_, d := r.tr.do("predicates.Orient3D x1e5", 0, 0, func() {
		for i := range pts {
			predSink += predicates.Orient3D(pts[i][0], pts[i][1], pts[i][2], pts[i][3])
		}
	})
	r.set("predicates.orient3d_ns", float64(d.Nanoseconds())/n, "ns")
	_, d = r.tr.do("predicates.InSphere x1e5", 0, 0, func() {
		for i := range pts {
			predSink += predicates.InSphere(pts[i][0], pts[i][1], pts[i][2], pts[i][3], pts[i][4])
		}
	})
	r.set("predicates.insphere_ns", float64(d.Nanoseconds())/n, "ns")
	return nil
}

// delaunay drives one Worker: 20k seeded insertions into the unit box,
// then removal of every tenth inserted vertex. With one worker the
// kernel counters are exact, not timing-dependent.
func (r *traceRun) delaunay() error {
	const nIns = 20_000
	m, err := delaunay.NewMesh(geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1})
	if err != nil {
		return err
	}
	w := m.NewWorker(0)
	defer w.Release()
	pts := make([]geom.Vec3, nIns)
	for i := range pts {
		pts[i] = geom.Vec3{X: r.rng.Float64(), Y: r.rng.Float64(), Z: r.rng.Float64()}
	}
	var verts []arena.Handle
	start := m.FirstCell()
	_, dIns := r.tr.do("delaunay.Insert x20k", 0, 0, func() {
		for _, p := range pts {
			res, st := w.Insert(p, delaunay.KindCircum, start)
			if st != delaunay.OK {
				r.op(fmt.Errorf("delaunay.Insert: %v", st))
				continue
			}
			r.op(nil)
			verts = append(verts, res.NewVert)
			start = res.Created[0]
		}
	})
	ins := w.Stats
	removed := 0
	_, dRem := r.tr.do("delaunay.Remove x2k", 0, 0, func() {
		for i := 0; i < len(verts); i += 10 {
			// Failed is a legitimate outcome (a cospherical link the
			// local triangulation cannot match); it leaves the mesh
			// untouched and is not counted as removed.
			if _, st := w.Remove(verts[i]); st == delaunay.OK {
				removed++
			}
		}
	})
	if err := m.Check(); err != nil {
		r.op(fmt.Errorf("delaunay.Check after insert/remove: %v", err))
	}
	if ins.Inserts == 0 || removed == 0 {
		return fmt.Errorf("delaunay: %d inserts, %d removals committed", ins.Inserts, removed)
	}
	r.set("delaunay.insert_us", dIns.Seconds()*1e6/float64(len(pts)), "us")
	r.set("delaunay.remove_us", dRem.Seconds()*1e6/float64((len(verts)+9)/10), "us")
	r.set("delaunay.walk_steps_per_op", float64(ins.WalkSteps)/float64(ins.Inserts), "count")
	r.set("delaunay.cavity_cells_per_op", float64(ins.CavityCells)/float64(ins.Inserts), "count")
	r.set("delaunay.locks_per_op", float64(w.Stats.LocksAcquired)/float64(w.Stats.Inserts+w.Stats.Removals), "count")
	return nil
}

func (r *traceRun) edt() error {
	im := phantom(0, libScale)
	s := r.tr.medianOf(3, "edt.Compute", func() { edt.Compute(im, 1) })
	r.set("edt.compute_s", s, "s")
	r.set("edt.voxels_per_s", float64(im.NumVoxels())/s, "1/s")
	return nil
}

// core runs the lib_mesh abdominal phantom through a cold and a warm
// session at W=C and at W=1, and reads the paper's overhead
// decomposition from Result.Stats.
func (r *traceRun) core() error {
	var nrrd bytes.Buffer
	if err := img.WriteNRRD(&nrrd, phantom(0, libScale)); err != nil {
		return err
	}
	fresh := func() *img.Image {
		im, _ := img.ReadNRRD(bytes.NewReader(nrrd.Bytes()))
		return im
	}
	type runs struct {
		cold, warm, refine float64
		last               *core.Result
		allocMB            float64
	}
	measure := func(workers int) (runs, error) {
		var out runs
		var sess *pi2m.Session
		var res *core.Result
		var err error
		im := fresh()
		_, d := r.tr.do(fmt.Sprintf("core.NewSession+Run W=%d cold", workers), 0, 0, func() {
			sess, err = pi2m.NewSession(pi2m.WithThreads(workers), pi2m.WithLivelockTimeout(time.Minute))
			if err == nil {
				res, err = sess.Run(context.Background(), im)
			}
		})
		r.op(err)
		if err != nil {
			return out, err
		}
		defer sess.Close()
		out.cold = d.Seconds()
		var warm, refine []float64
		for i := 0; i < 3; i++ {
			im := fresh()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			_, d := r.tr.do(fmt.Sprintf("core.Session.Run W=%d warm", workers), 0, 0, func() {
				res, err = sess.Run(context.Background(), im)
			})
			runtime.ReadMemStats(&ms1)
			r.op(err)
			if err != nil {
				return out, err
			}
			warm = append(warm, d.Seconds())
			refine = append(refine, res.RefineTime.Seconds())
			out.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		}
		out.warm, out.refine, out.last = median(warm), median(refine), res
		return out, nil
	}

	wn, err := measure(clients())
	if err != nil {
		return err
	}
	st := wn.last.Stats
	threadNs := float64(st.Threads) * float64(wn.last.RefineTime.Nanoseconds())
	ops := float64(st.Inserts + st.Removals)
	_, dSnap := r.tr.do("core.Result.Snapshot", 0, 0, func() { wn.last.Snapshot() })
	elements := wn.last.Elements()

	w1, err := measure(1)
	if err != nil {
		return err
	}
	r.set("core.refine_s_w1", w1.refine, "s")
	r.set("core.refine_s_wn", wn.refine, "s")
	r.set("core.speedup_wn", w1.refine/wn.refine, "ratio")
	r.set("core.rollbacks_per_op", float64(st.Rollbacks)/ops, "ratio")
	r.set("core.contention_share", float64(st.ContentionNs)/threadNs, "ratio")
	r.set("core.loadbalance_share", float64(st.LoadBalanceNs)/threadNs, "ratio")
	r.set("core.rollback_share", float64(st.RollbackNs)/threadNs, "ratio")
	r.set("core.elements", float64(elements), "count")
	r.set("core.session_cold_s", wn.cold, "s")
	r.set("core.session_warm_s", wn.warm, "s")
	r.set("core.warm_alloc_mb", wn.allocMB, "MiB")
	r.set("core.snapshot_s", dSnap.Seconds(), "s")
	return nil
}

// imgAndMeshio prepares the serving chain's one image and times the
// codecs on it.
func (r *traceRun) imgAndMeshio() error {
	in, err := nrrdInputs(srvScale)
	if err != nil {
		return err
	}
	r.body = in[1]
	r.set("img.nrrd_decode_s", r.tr.medianOf(5, "img.ReadNRRD", func() {
		r.im, err = img.ReadNRRD(bytes.NewReader(r.body))
	}), "s")
	if err != nil {
		return err
	}
	res, err := core.Run(core.Config{Image: r.im, Workers: 1, LivelockTimeout: time.Minute})
	r.op(err)
	if err != nil {
		return err
	}
	r.snap = res.Snapshot()

	var buf bytes.Buffer
	s := r.tr.medianOf(5, "meshio.WriteVTKSnapshot", func() {
		buf.Reset()
		meshio.WriteVTKSnapshot(&buf, r.snap)
	})
	r.set("meshio.vtk_encode_s", s, "s")
	r.set("meshio.vtk_mb_per_s", float64(buf.Len())/1e6/s, "MB/s")
	r.set("meshio.off_encode_s", r.tr.medianOf(5, "meshio.WriteOFFSnapshot", func() {
		meshio.WriteOFFSnapshot(io.Discard, r.snap)
	}), "s")
	return nil
}

func (r *traceRun) cachestore() error {
	dir := filepath.Join(r.dir, "store")
	st, _, err := cachestore.Open(cachestore.Config{Dir: dir})
	if err != nil {
		return err
	}
	const blobs = 24
	key := func(i int) string { return serve.ImageKey([]byte(fmt.Sprintf("trace-%d", i))) }
	puts := make([]float64, blobs)
	for i := range puts {
		_, d := r.tr.do("cachestore.Put", 0, 0, func() { _, err = st.Put(key(i), "", r.snap) })
		r.op(err)
		puts[i] = d.Seconds()
	}
	r.set("cachestore.put_s", median(puts), "s")
	i := 0
	r.set("cachestore.get_s", r.tr.medianOf(blobs, "cachestore.Get", func() {
		if _, _, ok := st.Get(key(i), ""); !ok {
			r.op(fmt.Errorf("cachestore.Get: key %d missing", i))
		}
		i++
	}), "s")
	const tags = 10_000
	_, d := r.tr.do("cachestore.ETag x1e4", 0, 0, func() {
		for j := 0; j < tags; j++ {
			st.ETag(key(j%blobs), "")
		}
	})
	r.set("cachestore.etag_s", d.Seconds()/tags, "s")
	stats := st.Stats()
	if err := st.Close(); err != nil {
		return err
	}
	var reopened *cachestore.Store
	_, d = r.tr.do("cachestore.Open (24 blobs)", 0, 0, func() {
		reopened, _, err = cachestore.Open(cachestore.Config{Dir: dir})
	})
	r.op(err)
	if err != nil {
		return err
	}
	if reopened.Len() != blobs {
		r.op(fmt.Errorf("cachestore.Open recovered %d of %d blobs", reopened.Len(), blobs))
	}
	r.set("cachestore.open_s", d.Seconds(), "s")
	r.set("cachestore.blob_mb", float64(stats.Bytes)/float64(stats.Entries)/(1<<20), "MiB")
	return reopened.Close()
}

// node is one in-process pi2md: a Server over its own Store handle,
// behind a loopback listener.
type node struct {
	srv   *serve.Server
	store *cachestore.Store
	ts    *httptest.Server
}

func newNode(cacheDir string, pool int) (*node, error) {
	st, _, err := cachestore.Open(cachestore.Config{Dir: cacheDir})
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		PoolSize: pool,
		Cache:    st,
		Session:  core.Config{Workers: 1, LivelockTimeout: time.Minute},
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &node{srv: srv, store: st, ts: httptest.NewServer(srv.Handler())}, nil
}

func (n *node) close() {
	n.ts.Close()
	n.srv.Drain(context.Background())
	n.store.Close()
}

// reply is one traced HTTP exchange.
type reply struct {
	span   int
	dur    time.Duration
	status int
	header http.Header
	body   []byte
}

// request sends one traced request and counts it as failed unless it
// is answered with wantStatus.
func (r *traceRun) request(name, method, url string, body []byte, header map[string]string, wantStatus int) reply {
	var rep reply
	var err error
	req := r.tr.newReq()
	rep.span, rep.dur = r.tr.do(name, 0, req, func() {
		var hreq *http.Request
		hreq, err = http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return
		}
		for k, v := range header {
			hreq.Header.Set(k, v)
		}
		var resp *http.Response
		if resp, err = http.DefaultClient.Do(hreq); err != nil {
			return
		}
		rep.status, rep.header = resp.StatusCode, resp.Header
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	})
	if err == nil && rep.status != wantStatus {
		err = fmt.Errorf("%s: status %d, want %d: %.200s", name, rep.status, wantStatus, rep.body)
	}
	r.op(err)
	return rep
}

func secs(reps []reply) []float64 {
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = rep.dur.Seconds()
	}
	return out
}

// serve times every request path of one in-process daemon and
// reconciles the cold and the hit path against their child stages.
func (r *traceRun) serve() error {
	n, err := newNode(filepath.Join(r.dir, "serve-cache"), 1)
	if err != nil {
		return err
	}
	defer n.close()
	url := n.ts.URL + "/v1/mesh"

	// Cold path: three never-seen copies of the image, each reconciled
	// against its child stages. EDT and refinement were timed by the run
	// itself and come from the server's public run summary; the other
	// stages are the same input replayed through the layer's function.
	res, err := core.Run(core.Config{Image: r.im, Workers: 1, LivelockTimeout: time.Minute})
	if err != nil {
		return err
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	var misses []reply
	var missSelf []float64
	for i := 0; i < 3; i++ {
		miss := r.request("serve.miss", "POST", url, uniqueNRRD(r.body, 0, i), nil, 200)
		misses = append(misses, miss)
		recent := n.srv.Stats().RecentRuns
		if len(recent) == 0 {
			return fmt.Errorf("serve: no recent run after a miss")
		}
		run := recent[len(recent)-1].Run
		at := r.tr.spans[miss.span-1].Start
		r.tr.add("edt.Compute (run summary)", miss.span, 0, at, at+ms(run.EDTMillis))
		r.tr.add("core.refine (run summary)", miss.span, 0, at, at+ms(run.RefineMillis))
		r.tr.do("img.ReadNRRD (replay)", miss.span, 0, func() { img.ReadNRRD(bytes.NewReader(r.body)) })
		r.tr.do("core.Result.Snapshot (replay)", miss.span, 0, func() { res.Snapshot() })
		r.tr.do("cachestore.Put (replay)", miss.span, 0, func() {
			n.store.Put(serve.ImageKey([]byte(fmt.Sprintf("replay-%d", i))), "", r.snap)
		})
		r.tr.do("meshio.WriteVTKSnapshot (replay)", miss.span, 0, func() { meshio.WriteVTKSnapshot(io.Discard, r.snap) })
		self := selfTime(miss.span, r.tr.spans)
		missSelf = append(missSelf, self.Seconds())
		fmt.Printf("  reconcile serve.miss: %.4fs total = %.4fs child stages + %.4fs self\n",
			miss.dur.Seconds(), (miss.dur - self).Seconds(), self.Seconds())
	}
	r.set("serve.miss_s", median(secs(misses)), "s")
	r.set("serve.miss_self_s", median(missSelf), "s")

	// Same image, new variant: the parsed image is cached, the mesh is not.
	var variants []reply
	for _, re := range []string{"2.1", "2.2", "2.3"} {
		variants = append(variants, r.request("serve.variant_miss", "POST", url+"?max_radius_edge="+re, r.body, nil, 200))
	}
	r.set("serve.variant_miss_s", median(secs(variants)), "s")

	// Hit path.
	first := r.request("serve.miss (fill)", "POST", url, r.body, nil, 200)
	etag := first.header.Get("ETag")
	var hits, conds, probes []reply
	var hitSelf []float64
	for i := 0; i < 20; i++ {
		hit := r.request("serve.hit", "POST", url, r.body, nil, 200)
		hits = append(hits, hit)
		r.tr.do("cachestore.Get (replay)", hit.span, 0, func() { n.store.Get(serve.ImageKey(r.body), "") })
		r.tr.do("meshio.WriteVTKSnapshot (replay)", hit.span, 0, func() { meshio.WriteVTKSnapshot(io.Discard, r.snap) })
		hitSelf = append(hitSelf, selfTime(hit.span, r.tr.spans).Seconds())
		conds = append(conds, r.request("serve.notmodified", "POST", url, r.body, map[string]string{"If-None-Match": etag}, 304))
		probes = append(probes, r.request("serve.probe", "GET", n.ts.URL+"/v1/cache/"+serve.ImageKey(r.body), nil, nil, 200))
	}
	if got := hits[len(hits)-1].header.Get("ETag"); got != etag {
		r.op(fmt.Errorf("serve.hit: ETag %q, first answer had %q", got, etag))
	}
	r.set("serve.hit_s", median(secs(hits)), "s")
	r.set("serve.hit_self_s", median(hitSelf), "s")
	r.set("serve.notmodified_s", median(secs(conds)), "s")
	r.set("serve.probe_s", median(secs(probes)), "s")

	// Coalescing: eight identical concurrent jobs for a never-seen image
	// on a one-session pool. Followers wait for the leader's run.
	const jobs = 8
	before := n.srv.Stats()
	fresh := uniqueNRRD(r.body, 0, 100)
	followers := make([]reply, jobs)
	var wg sync.WaitGroup
	for i := range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			followers[i] = r.request("serve.follower", "POST", url, fresh, nil, 200)
		}()
	}
	wg.Wait()
	after := n.srv.Stats()
	meshed := (after.Accepted - before.Accepted) - (after.Coalesced - before.Coalesced) - (after.CacheServed - before.CacheServed)
	r.set("serve.follower_s", median(secs(followers)), "s")
	r.set("serve.coalesce_runs_ratio", float64(meshed)/jobs, "ratio")

	// Simulate on the cached mesh: the solve stage alone.
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	for _, part := range []struct {
		name string
		data []byte
	}{
		{"spec", []byte(`{"format":"summary","dirichlet":[{"value":0}],"source":{"uniform":1},"solve":{"tol":1e-8}}`)},
		{"image", r.body},
	} {
		fw, err := mw.CreateFormFile(part.name, part.name)
		if err != nil {
			return err
		}
		fw.Write(part.data)
	}
	mw.Close()
	sim := r.request("serve.simulate", "POST", n.ts.URL+"/v1/simulate", form.Bytes(),
		map[string]string{"Content-Type": mw.FormDataContentType()}, 200)
	var summary serve.SimSummary
	if err := json.Unmarshal(sim.body, &summary); err != nil || summary.Iterations == 0 {
		r.op(fmt.Errorf("serve.simulate: unusable summary %.200s (%v)", sim.body, err))
	}
	r.set("serve.simulate_solve_s", summary.SolveSeconds, "s")
	return nil
}

func (r *traceRun) fem() error {
	ext, _ := r.snap.ExteriorVertices()
	dirichlet := make(map[int32]float64, len(ext))
	for _, v := range ext {
		dirichlet[v] = 0
	}
	prob := &fem.Problem{
		Mesh:      meshio.RawFromSnapshot(r.snap),
		Source:    func(geom.Vec3) float64 { return 1 },
		Dirichlet: dirichlet,
	}
	var sys *fem.System
	var sol *fem.Solution
	var err error
	_, dAsm := r.tr.do("fem.Assemble", 0, 0, func() { sys, err = fem.Assemble(prob) })
	r.op(err)
	if err != nil {
		return err
	}
	_, dSolve := r.tr.do("fem.System.Solve", 0, 0, func() { sol, err = sys.Solve(1e-8, 0) })
	r.op(err)
	if err != nil {
		return err
	}
	r.set("fem.assemble_s", dAsm.Seconds(), "s")
	r.set("fem.solve_s", dSolve.Seconds(), "s")
	r.set("fem.iterations", float64(sol.Iterations), "count")
	return nil
}

var ringSink int

// router puts an in-process router in front of two in-process daemons
// that share one cache directory, as the router_hot workload does.
func (r *traceRun) router() error {
	cache := filepath.Join(r.dir, "router-cache")
	var nodes [2]*node
	for i := range nodes {
		n, err := newNode(cache, 1)
		if err != nil {
			return err
		}
		defer n.close()
		nodes[i] = n
	}
	urls := []string{nodes[0].ts.URL, nodes[1].ts.URL}

	const lookups = 100_000
	ring := router.NewRing(urls, 128)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x|", r.rng.Uint64())
	}
	_, d := r.tr.do("router.Ring.Owner x1e5", 0, 0, func() {
		for i := 0; i < lookups; i++ {
			ringSink += len(ring.Owner(keys[i%len(keys)]))
		}
	})
	r.set("router.ring_lookup_ns", float64(d.Nanoseconds())/lookups, "ns")

	rt, err := router.New(router.Config{Backends: urls})
	if err != nil {
		return err
	}
	for _, u := range urls {
		rt.ProbeOnce(u)
	}
	if got := len(rt.HealthyBackends()); got != 2 {
		return fmt.Errorf("router: %d of 2 backends in the ring after probing", got)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	url := rts.URL + "/v1/mesh"

	first := r.request("router.miss (fill)", "POST", url, r.body, nil, 200)
	etag := first.header.Get("ETag")
	var hits, conds []reply
	for i := 0; i < 20; i++ {
		hits = append(hits, r.request("router.hit", "POST", url, r.body, nil, 200))
		conds = append(conds, r.request("router.local304", "POST", url, r.body, map[string]string{"If-None-Match": etag}, 304))
	}
	if got := rt.Stats().ETag304s; got != int64(len(conds)) {
		r.op(fmt.Errorf("router: %d of %d conditionals answered from the ETag table", got, len(conds)))
	}
	hit := median(secs(hits))
	r.set("router.hit_s", hit, "s")
	r.set("router.hop_s", hit-r.metrics["serve.hit_s"].Value, "s")
	r.set("router.local304_s", median(secs(conds)), "s")

	// Replica probe: cache a dozen images, stop the backend that served
	// the first, and ask again for the ones it served. The survivor has
	// never seen them; it adopts the blobs from the shared directory and
	// answers the router's cache-only probe.
	const images = 12
	bodies := make([][]byte, images)
	owner := make([]string, images)
	for i := range bodies {
		bodies[i] = uniqueNRRD(r.body, 1, i)
		owner[i] = r.request("router.miss (fill)", "POST", url, bodies[i], nil, 200).header.Get(serve.NodeHeader)
	}
	stopped := nodes[0]
	if nodes[1].srv.NodeID() == owner[0] {
		stopped = nodes[1]
	}
	stopped.ts.Close()
	before := rt.Stats().ReplicaCacheHits
	var probes []reply
	for i := range bodies {
		if owner[i] == stopped.srv.NodeID() {
			probes = append(probes, r.request("router.replica_probe", "POST", url, bodies[i], nil, 200))
		}
	}
	if got := rt.Stats().ReplicaCacheHits - before; got != int64(len(probes)) {
		r.op(fmt.Errorf("router: %d of %d re-homed requests were replica cache hits", got, len(probes)))
	}
	r.set("router.replica_probe_s", median(secs(probes)), "s")
	return nil
}

// overhead reports what tracing costs: a cache-hit loop in which every
// other request is sent with span recording switched off. Alternating
// keeps the host's mood out of the comparison.
func (r *traceRun) overhead() error {
	n, err := newNode(filepath.Join(r.dir, "overhead-cache"), 1)
	if err != nil {
		return err
	}
	defer n.close()
	url := n.ts.URL + "/v1/mesh"
	r.request("serve.miss (fill)", "POST", url, r.body, nil, 200)
	const pairs = 200
	var spent [2]time.Duration // [untraced, traced]
	for i := 0; i < 2*pairs; i++ {
		r.tr.on = i%2 == 1
		spent[i%2] += r.request("serve.hit (overhead loop)", "POST", url, r.body, nil, 200).dur
	}
	r.tr.on = true
	untraced, traced := pairs/spent[0].Seconds(), pairs/spent[1].Seconds()
	fmt.Printf("  tracing overhead: %.1f hits/s traced vs %.1f hits/s untraced (%+.1f %%)\n",
		traced, untraced, 100*(traced-untraced)/untraced)
	return nil
}
