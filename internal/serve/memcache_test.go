package serve

import (
	"sync"
	"testing"

	"repro/internal/img"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestLRU pins what memCache adds to lru.Cache, whose own tests cover
// the bounds: its hit, miss and evict counts and resident-bytes gauge
// across an eviction and an over-budget refusal, a duplicate add
// keeping the resident value, and the doorkeeper refusing a key's first
// add.
func TestLRU(t *testing.T) {
	reg := metrics.NewRegistry()
	events := reg.CounterVec("events", "", "cache", "event")
	bytes := reg.GaugeVec("bytes", "", "cache")

	type step struct {
		op   string // "add" or "get"
		key  string
		size int64  // add: bytes accounted
		want string // get: the value expected, "" = a miss; add: the value add returns
	}
	cases := []struct {
		name            string
		steps           []step
		entries         int
		bytes           int64
		hit, miss, evic int64
		door            bool
	}{
		{"byte budget evicts the least recently used", []step{
			{"add", "a", 4, "a"}, {"add", "b", 4, "b"}, {"get", "a", 0, "a"}, // b is now the victim
			{"add", "c", 4, "c"}, {"get", "b", 0, ""}, {"get", "a", 0, "a"}, {"get", "c", 0, "c"},
		}, 2, 8, 3, 1, 1, false},
		{"larger than the whole budget is refused, evicting nothing", []step{
			{"add", "a", 4, "a"}, {"add", "huge", 11, "huge"}, {"get", "huge", 0, ""}, {"get", "a", 0, "a"},
		}, 1, 4, 1, 1, 0, false},
		{"a duplicate add keeps and returns the resident value", []step{
			{"add", "a", 4, "a"}, {"add", "a", 9, "a"}, {"get", "a", 0, "a"},
		}, 1, 4, 1, 0, 0, false},
		{"a doorkeeper admits a key on its second add", []step{
			{"add", "a", 4, "a"}, {"get", "a", 0, ""}, {"add", "b", 4, "b"},
			{"add", "a", 4, "a"}, {"get", "a", 0, "a"}, {"get", "b", 0, ""},
		}, 1, 4, 1, 2, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newMemCache[*string](tc.name, 10, 0, tc.door, events, bytes) // 10 bytes, no entry cap
			resident := map[string]*string{}
			for i, st := range tc.steps {
				switch st.op {
				case "add":
					v := new(string)
					*v = st.key
					got := c.add(st.key, v, st.size)
					if *got != st.want {
						t.Fatalf("step %d: add(%q) returned %q, want %q", i, st.key, *got, st.want)
					}
					if prev, dup := resident[st.key]; dup && got != prev {
						t.Fatalf("step %d: duplicate add(%q) replaced the resident value", i, st.key)
					}
					if _, in := c.cache.Peek(st.key); in {
						resident[st.key] = got
					}
				case "get":
					got, ok := c.get(st.key)
					if ok != (st.want != "") || (ok && *got != st.want) {
						t.Fatalf("step %d: get(%q) = %v, %v; want %q", i, st.key, got, ok, st.want)
					}
				}
			}
			if n, b := c.cache.Len(), c.cache.Bytes(); n != tc.entries || b != tc.bytes {
				t.Errorf("resident %d entries / %d bytes, want %d / %d", n, b, tc.entries, tc.bytes)
			}
			if got := bytes.Value(tc.name); got != tc.bytes {
				t.Errorf("bytes gauge = %d, want %d", got, tc.bytes)
			}
			if h, m, e := c.hit.Value(), c.miss.Value(), c.evict.Value(); h != tc.hit || m != tc.miss || e != tc.evic {
				t.Errorf("hit/miss/evict = %d/%d/%d, want %d/%d/%d", h, m, e, tc.hit, tc.miss, tc.evic)
			}
			if got := events.Value(tc.name, "evict"); got != tc.evic {
				t.Errorf("events{evict} series = %d, want %d", got, tc.evic)
			}
		})
	}
}

// TestImageCacheLRUBytes pins decodeImage's admission and eviction
// policy: a key's first parse is not retained and its second is, the
// cache is LRU accounted in bytes (one byte per voxel), a hit returns
// the resident image by pointer, and admitting past the byte budget
// evicts the least recently used image — not the oldest insertion. An
// image larger than the whole budget is refused outright.
func TestImageCacheLRUBytes(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	c := srv.imgCache
	var bodies [3][]byte
	var voxels [3]int64
	for i := range bodies {
		bodies[i], voxels[i] = nrrdBody(t, 6+i), int64(img.SpherePhantom(6+i).NumVoxels())
	}
	c.cache.MaxEntries, c.cache.MaxBytes = 10, voxels[1]+voxels[2]
	resident := map[int]*img.Image{}
	// 0 and 1 admitted on their second parse; 0 hit, so 1 is the least
	// recent; 2 admitted evicts 1; 0 still hits; 1 parses again.
	for n, step := range []struct {
		i   int
		hit bool
	}{{0, false}, {0, false}, {1, false}, {1, false}, {0, true}, {2, false}, {2, false}, {0, true}, {1, false}} {
		key := wire.ImageKey(bodies[step.i])
		im, err := srv.decodeImage(key, bodies[step.i])
		if hit := err == nil && im == resident[step.i]; hit != step.hit {
			t.Fatalf("step %d: decode of image %d hit %v (%v), want %v", n, step.i, hit, err, step.hit)
		}
		if in, ok := c.cache.Peek(key); ok {
			resident[step.i] = in
		}
		if n == 7 && (c.cache.Bytes() != voxels[0]+voxels[2] || c.evict.Value() != 1) {
			t.Fatalf("%d bytes resident after %d evictions, want %d after 1", c.cache.Bytes(), c.evict.Value(), voxels[0]+voxels[2])
		}
	}
	if h, m := c.hit.Value(), c.miss.Value(); h != 2 || m != 7 {
		t.Errorf("hits/misses %d/%d, want 2/7: a parse not admitted counts a miss", h, m)
	}
	tiny, _ := newTestServer(t, Config{PoolSize: 1})
	tiny.imgCache.cache.MaxBytes = 16
	for range 2 {
		tiny.decodeImage(wire.ImageKey(bodies[0]), bodies[0])
	}
	if tiny.imgCache.cache.Len() != 0 {
		t.Error("an image over the whole budget was admitted")
	}
}

// TestDecodeImageRace: concurrent decodes of a body seen once before
// converge on one *img.Image — the session EDT cache is keyed by
// pointer identity, so divergent pointers silently defeat it.
func TestDecodeImageRace(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	body := nrrdBody(t, 8)
	key := wire.ImageKey(body)
	srv.decodeImage(key, body)
	ptrs := make([]*img.Image, 16)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range ptrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ptrs[i], _ = srv.decodeImage(key, body)
		}()
	}
	close(start)
	wg.Wait()
	for _, p := range ptrs {
		if p == nil || p != ptrs[0] {
			t.Fatal("racing decodes returned divergent image pointers")
		}
	}
}

// TestOneShotUploadRetainsNoImage: an image uploaded once leaves
// pi2md_mem_cache_bytes{cache="image"} unmoved; a second upload of it
// (another variant, so the result cache misses) is parsed and
// retained, and the third reuses that parse, so its session's distance
// transform.
func TestOneShotUploadRetainsNoImage(t *testing.T) {
	voxels := int64(img.SpherePhantom(6).NumVoxels())
	uploads := func(deltas ...string) func(t *testing.T, r *endingRig) {
		return func(t *testing.T, r *endingRig) {
			for _, d := range deltas {
				r.mesh("?delta=" + d)
			}
		}
	}
	variant := func(d float64) string { return (&wire.MeshSpec{Delta: d}).Variant() }
	runEndings(t,
		endingRow{name: "a one-shot upload", act: post("?delta=2"), want: served(variant(2), "vtk"),
			moved: with(served1, "mem_bytes:image", 0, "mem:image,miss", 1)},
		endingRow{name: "a second upload", setup: uploads("2"), act: post("?delta=2.5"), want: served(variant(2.5), "vtk"),
			moved: with(served1, "mem_bytes:image", int(voxels), "mem:image,miss", 1, "edt_hits", 0)},
		endingRow{name: "a third upload", setup: uploads("2", "2.5"), act: post("?delta=3"), want: served(variant(3), "vtk"),
			moved: with(served1, "mem:image,hit", 1, "mem:image,miss", 0, "edt_hits", 1)},
	)
}

// TestImageKeyFollowsTheBytes: the upload memo answers repeats, and a
// copy with one voxel byte flipped is a new image — a new entity and
// one more run — which the old tag does not validate, whether the memo
// has seen the copy before or not.
func TestImageKeyFollowsTheBytes(t *testing.T) {
	flip := func(t *testing.T, r *endingRig) { r.meshOK(); r.base = flipVoxel(t, r.base) }
	runEndings(t,
		endingRow{name: "a third upload of one image",
			setup: func(t *testing.T, r *endingRig) { r.meshOK(); r.meshOK() }, act: post(""), want: servedVTK,
			moved: with(cacheHit1, "mem:upload,hit", 1, "runs", 0)},
		endingRow{name: "a flipped copy under the old tag", setup: flip,
			act:  func(t *testing.T, r *endingRig) answer { return r.mesh("", "If-None-Match", r.etag) },
			want: servedVTK, moved: with(served1, "mem:upload,hit", 0, "mem:upload,miss", 1)},
		endingRow{name: "a flipped copy the memo has seen, under the old tag",
			setup: func(t *testing.T, r *endingRig) { flip(t, r); r.mesh(""); r.mesh("") },
			act:   func(t *testing.T, r *endingRig) answer { return r.mesh("", "If-None-Match", r.etag) },
			want:  servedVTK, moved: with(cacheHit1, "mem:upload,hit", 1)},
	)
}
