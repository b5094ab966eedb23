package serve

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/cachestore"
	"repro/internal/wire"
)

// TestColdMissProbesCacheOnce: a request the cache cannot answer looks
// it up once — one index probe, one ENOENT at the key's blob path —
// with the brownout controller on, as the daemon runs it. An idle
// controller rewrites nothing, so there is no second identity to look
// up.
func TestColdMissProbesCacheOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	meshOK(t, ts.Client(), ts.URL, "", nrrdBody(t, 7))
	if st := srv.cache.Stats(); st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("one cold request: cache misses = %d, writes = %d, want 1 and 1", st.Misses, st.Writes)
	}
}

// TestCacheSurvivesRestart: a new Server over the same cache directory
// answers a repeated request from disk — no session lease, byte-equal
// body — which is the warm-start the e2e restart test asserts over a
// real kill -9.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := nrrdBody(t, 7)

	cache1, _, err := cachestore.Open(cachestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{PoolSize: 1, Cache: cache1})
	meshed, etag := meshOK(t, ts1.Client(), ts1.URL, "", body)
	if etag == "" {
		t.Fatal("first life: no ETag")
	}
	ts1.Close()
	// An unclean end: the store is abandoned without Close, like kill -9
	// (the blob was fsynced and renamed into place by Put, and the blobs
	// are all the durable state there is).

	cache2, rep, err := cachestore.Open(cachestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache2.Close() })
	if cache2.Len() == 0 {
		t.Fatalf("no entries survived the restart (fsck %+v)", rep)
	}
	srv2, ts2 := newTestServer(t, Config{PoolSize: 1, Cache: cache2})
	before := ledger(srv2)
	served, got := meshOK(t, ts2.Client(), ts2.URL, "", body)
	if !bytes.Equal(meshed, served) {
		t.Fatal("restarted server served different bytes for the same request")
	}
	if got != etag {
		t.Fatalf("ETag changed across restart: %q vs %q", got, etag)
	}
	if n := moved(before, ledger(srv2))["leases"]; n != 0 {
		t.Fatalf("restart warm request consumed %d session leases, want 0", n)
	}
}

// flipVoxel returns a copy of a raw NRRD with the middle voxel's byte
// changed.
func flipVoxel(t *testing.T, nrrd []byte) []byte {
	t.Helper()
	data := bytes.Index(nrrd, []byte("\n\n")) + 2
	if data < 2 || data >= len(nrrd) {
		t.Fatal("no attached voxel data")
	}
	f := bytes.Clone(nrrd)
	f[data+(len(f)-data)/2] ^= 1
	return f
}

// TestImageKeyFollowsTheBytes: the upload memo answers repeats, and a
// copy with one voxel byte flipped is a new image — a new ETag and
// exactly one more run — which the old tag does not validate, whether
// the memo has seen the copy before or not.
func TestImageKeyFollowsTheBytes(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()
	image := nrrdBody(t, 7)
	uploadHits := func() int64 { return ledger(srv)["mem:upload,hit"] }

	_, tag := meshOK(t, client, ts.URL, "", image)
	for i := 0; i < 2; i++ {
		if _, again := meshOK(t, client, ts.URL, "", image); again != tag {
			t.Fatalf("repeat %d: ETag %s, want %s", i+1, again, tag)
		}
	}
	if uploadHits() != 1 || srv.mRunSeconds.Count() != 1 {
		t.Fatalf("three POSTs of one image: %v upload-memo hits, %d runs; want 1 and 1", uploadHits(), srv.mRunSeconds.Count())
	}

	flipped := flipVoxel(t, image)
	if _, newTag := meshOK(t, client, ts.URL, "", flipped); newTag == tag || srv.mRunSeconds.Count() != 2 {
		t.Fatalf("flipped copy: ETag %s (old %s), %d runs; want a new tag and 2 runs", newTag, tag, srv.mRunSeconds.Count())
	}
	for i := 0; i < 2; i++ {
		if a := send(t, client, "POST", ts.URL+"/v1/mesh", octet, flipped, "If-None-Match", tag); a.StatusCode != http.StatusOK {
			t.Fatalf("old tag on the flipped copy (ask %d): status %d, want 200", i+1, a.StatusCode)
		}
	}
	if uploadHits() != 2 || srv.mRunSeconds.Count() != 2 || srv.uploads.Stats().Entries != 2 {
		t.Fatalf("after the flipped copy: %v upload-memo hits, %d runs, %d memo entries; want 2, 2, 2",
			uploadHits(), srv.mRunSeconds.Count(), srv.uploads.Stats().Entries)
	}
}

// TestEtagMatch pins the If-None-Match comparison rules.
func TestEtagMatch(t *testing.T) {
	e := wire.EntityTag("00c0ffee00c0ffee", "vtk")
	cases := []struct {
		header string
		want   bool
	}{
		{e, true},
		{"*", true},
		{`W/` + e, true},
		{`"other"` + ", " + e, true},
		{`"other"`, false},
		{wire.EntityTag("00c0ffee00c0ffee", "off"), false},
		{"", false},
	}
	for _, c := range cases {
		if got := wire.ETagMatch(c.header, e); got != c.want {
			t.Errorf("wire.ETagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}
