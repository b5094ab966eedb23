package cachestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/img"
)

// testSnap builds a small deterministic snapshot; n varies the size so
// tests can distinguish entries and exercise byte accounting.
func testSnap(n int) *core.MeshSnapshot {
	s := &core.MeshSnapshot{
		Summary: core.RunSummary{Status: "complete", Elements: n},
	}
	for i := 0; i < n+4; i++ {
		s.Verts = append(s.Verts, geom.Vec3{X: float64(i), Y: float64(i) * 0.5, Z: float64(n)})
	}
	for i := 0; i < n+1; i++ {
		s.Cells = append(s.Cells, [4]int32{0, 1, 2, int32(3 + i%(len(s.Verts)-3))})
		s.Labels = append(s.Labels, img.Label(i%3+1))
	}
	return s
}

func snapsEqual(a, b *core.MeshSnapshot) bool {
	if len(a.Verts) != len(b.Verts) || len(a.Cells) != len(b.Cells) || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Verts {
		if a.Verts[i] != b.Verts[i] {
			return false
		}
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			return false
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return a.Summary.Elements == b.Summary.Elements
}

func TestBlobRoundTrip(t *testing.T) {
	snap := testSnap(7)
	meta := blobMeta{ImageKey: "abc", Variant: "delta=2.5", CreatedNS: 42, Summary: snap.Summary}
	data, etag, err := encodeBlob(meta, snap)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(etag) != 16 {
		t.Fatalf("etag %q is not 16 hex chars", etag)
	}
	gotMeta, got, gotTag, err := decodeBlob(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotTag != etag {
		t.Fatalf("etag mismatch: %q vs %q", gotTag, etag)
	}
	if gotMeta.ImageKey != "abc" || gotMeta.Variant != "delta=2.5" || gotMeta.CreatedNS != 42 {
		t.Fatalf("meta mismatch: %+v", gotMeta)
	}
	if !snapsEqual(snap, got) {
		t.Fatal("snapshot did not round-trip")
	}
	// verifyBlobHeader must agree with the full decoder.
	hMeta, hTag, err := verifyBlobHeader(data)
	if err != nil {
		t.Fatalf("verifyBlobHeader: %v", err)
	}
	if hTag != etag || hMeta.ImageKey != "abc" {
		t.Fatalf("header verify disagrees: %q %+v", hTag, hMeta)
	}
}

func TestBlobDecodeRejectsCorruption(t *testing.T) {
	snap := testSnap(5)
	data, _, err := encodeBlob(blobMeta{ImageKey: "k"}, snap)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     data[:10],
		"truncated": data[:len(data)-3],
		"badmagic":  append([]byte("XXXXXXXX"), data[8:]...),
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x01
	cases["bitflip"] = flip
	for name, d := range cases {
		if _, _, _, err := decodeBlob(d); err == nil {
			t.Errorf("%s: decode accepted corrupt blob", name)
		}
		if _, _, err := verifyBlobHeader(d); err == nil {
			t.Errorf("%s: verifyBlobHeader accepted corrupt blob", name)
		}
	}
}

func TestStorePutGetPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, rep, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rep.Verified != 0 || rep.Quarantined != 0 {
		t.Fatalf("fresh dir fsck found things: %+v", rep)
	}
	snap := testSnap(9)
	etag, err := s.Put("img1", "delta=2.5", snap)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	got, gotTag, ok := s.Get("img1", "delta=2.5")
	if !ok || gotTag != etag || !snapsEqual(snap, got) {
		t.Fatalf("get after put: ok=%v tag=%q", ok, gotTag)
	}
	if _, _, ok := s.Get("img1", ""); ok {
		t.Fatal("different variant must miss")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, rep2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rep2 != (FsckReport{Verified: 1}) {
		t.Fatalf("reopen fsck: %+v, want exactly one verified blob", rep2)
	}
	got, gotTag, ok = s2.Get("img1", "delta=2.5")
	if !ok || gotTag != etag || !snapsEqual(snap, got) {
		t.Fatal("entry did not survive reopen")
	}
	if tag, ok := s2.ETag("img1", "delta=2.5"); !ok || tag != etag {
		t.Fatalf("ETag lookup after reopen: %q %v", tag, ok)
	}
}

func TestStoreLRUByBytesEviction(t *testing.T) {
	dir := t.TempDir()
	one, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := encodeBlob(blobMeta{ImageKey: "size-probe"}, testSnap(10))
	one.Close()
	budget := int64(len(data))*2 + int64(len(data))/2 // room for 2 entries, not 3

	s, _, err := Open(Config{Dir: dir, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []string{"k1", "k2"} {
		if _, err := s.Put(k, "", testSnap(10)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k1 so k2 is the LRU victim.
	if _, _, ok := s.Get("k1", ""); !ok {
		t.Fatal("k1 missing before eviction")
	}
	if _, err := s.Put("k3", "", testSnap(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k2", ""); ok {
		t.Fatal("k2 should have been evicted (LRU)")
	}
	if _, _, ok := s.Get("k1", ""); !ok {
		t.Fatal("recently used k1 must survive")
	}
	if _, _, ok := s.Get("k3", ""); !ok {
		t.Fatal("newest k3 must survive")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > budget {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestStoreOversizedEntryRefused(t *testing.T) {
	s, _, err := Open(Config{Dir: t.TempDir(), MaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put("big", "", testSnap(50)); err != nil {
		t.Fatalf("oversized put must not error: %v", err)
	}
	if s.Len() != 0 {
		t.Fatal("oversized entry must not be admitted")
	}
}

func TestStoreQuarantinesCorruptBlobOnRead(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put("img1", "", testSnap(6)); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the blob behind the store's back.
	name := blobName("img1", "")
	path := filepath.Join(dir, blobsDirName, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("img1", ""); ok {
		t.Fatal("corrupt blob was served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineName, name)); err != nil {
		t.Fatalf("corrupt blob not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt blob still visible in blobs/")
	}
	// The entry is gone from the index too.
	if s.Contains("img1", "") {
		t.Fatal("corrupt entry still indexed")
	}
}

func TestFsckQuarantinesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	goodSnap := testSnap(8)
	goodTag, err := s.Put("good", "", goodSnap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("bad", "", testSnap(5)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt one blob, drop in a valid blob no store of ours wrote, leave
	// an abandoned tmp file, and leave an older build's index file lying
	// around (ignored: the blobs are the index).
	badPath := filepath.Join(dir, blobsDirName, blobName("bad", ""))
	raw, _ := os.ReadFile(badPath)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(badPath, raw, 0o644)

	orphanSnap := testSnap(11)
	orphanData, orphanTag, _ := encodeBlob(blobMeta{ImageKey: "orphan", Variant: "v", CreatedNS: 1, Summary: orphanSnap.Summary}, orphanSnap)
	os.WriteFile(filepath.Join(dir, blobsDirName, blobName("orphan", "v")), orphanData, 0o644)
	stray := filepath.Join(dir, blobsDirName, "stray.snap.tmp")
	os.WriteFile(stray, []byte("half"), 0o644)
	os.Chtimes(stray, time.Time{}, time.Now().Add(-2*tmpGrace))
	os.WriteFile(filepath.Join(dir, "journal"), []byte("{\"op\":\"put\" TORN"), 0o644)

	s2, rep, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rep.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (%+v)", rep.Quarantined, rep)
	}
	if rep.Verified != 2 {
		t.Fatalf("verified = %d, want 2: the good entry and the foreign blob (%+v)", rep.Verified, rep)
	}
	if rep.TmpCleaned != 1 {
		t.Fatalf("tmp cleaned = %d, want 1 (%+v)", rep.TmpCleaned, rep)
	}
	if got, tag, ok := s2.Get("good", ""); !ok || tag != goodTag || !snapsEqual(goodSnap, got) {
		t.Fatal("good entry lost")
	}
	if got, tag, ok := s2.Get("orphan", "v"); !ok || tag != orphanTag || !snapsEqual(orphanSnap, got) {
		t.Fatal("orphan not adopted")
	}
	if _, _, ok := s2.Get("bad", ""); ok {
		t.Fatal("corrupt entry served after fsck")
	}
	st := s2.Stats()
	if st.FsckQuarantined != 1 || st.Entries != 2 {
		t.Fatalf("fsck counters: %+v", st)
	}
}

func TestFsckRebuildsFromBlobsAlone(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var order []string // newest first
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("img%d", i)
		tag, err := s.Put(k, "", testSnap(i+3))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = tag
		order = append([]string{k}, order...)
	}
	// Reads reorder the live LRU; they are not durable state.
	s.Get("img0", "")
	// kill -9: the store is abandoned without Close. There is no index
	// file to lose — the blobs are all there is.

	s2, rep, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rep != (FsckReport{Verified: len(want)}) {
		t.Fatalf("reopen fsck: %+v, want %d verified and nothing else", rep, len(want))
	}
	// Restart recency is blob write order, newest first.
	for i, ki := range s2.KeysMRU() {
		if ki.ImageKey != order[i] || ki.ETag != want[ki.ImageKey] {
			t.Fatalf("KeysMRU after reopen = %+v, want write order %v", s2.KeysMRU(), order)
		}
	}
	for k, tag := range want {
		if gotTag, ok := s2.ETag(k, ""); !ok || gotTag != tag {
			t.Fatalf("entry %s not rebuilt (tag %q ok=%v)", k, gotTag, ok)
		}
	}
}

// TestStoreWriteFailureCachesNothing: a write the disk refuses is
// returned to the caller, counted, and leaves neither a blob nor an
// index entry; the next write lands durably and is served.
func TestStoreWriteFailureCachesNothing(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := faultinject.New(faultinject.Config{
		Seed:     1,
		Rates:    map[faultinject.Point]float64{faultinject.CacheWriteFail: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.CacheWriteFail: 1},
	})
	restore := faultinject.Enable(in)
	defer restore()

	if _, err := s.Put("img1", "", testSnap(6)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("put under an injected write failure returned %v, want EIO", err)
	}
	if _, err := os.Stat(filepath.Join(dir, blobsDirName, blobName("img1", ""))); !os.IsNotExist(err) {
		t.Fatal("blob written despite the injected failure")
	}
	if s.Contains("img1", "") || s.Len() != 0 {
		t.Fatal("a refused write was indexed")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 0 {
		t.Fatalf("write errors %d, writes %d, want 1 and 0", st.WriteErrors, st.Writes)
	}

	snap := testSnap(5)
	etag, err := s.Put("img1", "", snap)
	if err != nil {
		t.Fatalf("put on a healthy disk: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, blobsDirName, blobName("img1", ""))); err != nil {
		t.Fatalf("blob missing after a successful put: %v", err)
	}
	if got, gotTag, ok := s.Get("img1", ""); !ok || gotTag != etag || !snapsEqual(snap, got) {
		t.Fatal("the durable entry is not served")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 1 {
		t.Fatalf("write errors %d, writes %d, want 1 and 1", st.WriteErrors, st.Writes)
	}
}

func TestStoreTornWriteNeverServed(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(faultinject.Config{
		Seed:     2,
		Rates:    map[faultinject.Point]float64{faultinject.CacheTornWrite: 1},
		MaxFires: map[faultinject.Point]int64{faultinject.CacheTornWrite: 1},
	})
	restore := faultinject.Enable(in)
	snap := testSnap(8)
	if _, err := s.Put("torn", "", snap); err != nil {
		t.Fatal(err)
	}
	restore()
	// The torn blob is on disk and indexed, but the CRC check on read
	// must refuse it.
	if _, _, ok := s.Get("torn", ""); ok {
		t.Fatal("torn blob was served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}
	s.Close()

	// And fsck on the next boot must not resurrect it either: the blob
	// was already quarantined by the read, so the index entry is dropped.
	s2, rep, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, ok := s2.Get("torn", ""); ok {
		t.Fatal("torn blob served after reopen")
	}
	_ = rep
}

// TestKillMidWriteFsckSoak is the dedicated crash soak: across several
// seeds, a store takes writes while torn writes and bit flips are
// injected, then the process "dies" (the store is abandoned without
// Close), the directory is reopened, and every surviving read either
// misses or returns bytes that re-verify — corrupt entries are never
// served. TestPutCrashPoints enumerates the states a kill can leave.
func TestKillMidWriteFsckSoak(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			in := faultinject.New(faultinject.Config{
				Seed: seed,
				Rates: map[faultinject.Point]float64{
					faultinject.CacheTornWrite: 0.25,
					faultinject.CacheBitFlip:   0.25,
					faultinject.CacheWriteFail: 0.10,
				},
			})
			restore := faultinject.Enable(in)
			want := map[string]*core.MeshSnapshot{}
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("img%d", i)
				snap := testSnap(i%7 + 3)
				if _, err := s.Put(k, "", snap); errors.Is(err, syscall.EIO) {
					continue // refused: not cached, so not expected back
				} else if err != nil {
					t.Fatalf("put %s: %v", k, err)
				}
				want[k] = snap
			}
			restore()
			// kill -9: no Close.

			s2, rep, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer s2.Close()
			served := 0
			for k, snap := range want {
				got, _, ok := s2.Get(k, "")
				if !ok {
					continue // lost to injected corruption — allowed
				}
				served++
				if !snapsEqual(snap, got) {
					t.Fatalf("served wrong bytes for %s", k)
				}
			}
			t.Logf("seed %d: %d/%d survived, fsck %+v", seed, served, len(want), rep)
			if served == 0 {
				t.Fatal("soak lost every entry; fault rates are implausibly destructive")
			}
			// No corrupt blob may remain visible in blobs/.
			des, _ := os.ReadDir(filepath.Join(dir, blobsDirName))
			for _, de := range des {
				data, err := os.ReadFile(filepath.Join(dir, blobsDirName, de.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := verifyBlobHeader(data); err != nil {
					t.Fatalf("unverified blob %s visible after fsck: %v", de.Name(), err)
				}
			}
		})
	}
}

func TestKeysMRUOrder(t *testing.T) {
	s, _, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []string{"a", "b", "c"} {
		if _, err := s.Put(k, "", testSnap(3)); err != nil {
			t.Fatal(err)
		}
	}
	s.Get("a", "") // refresh a
	keys := s.KeysMRU()
	if len(keys) != 3 || keys[0].ImageKey != "a" || keys[1].ImageKey != "c" || keys[2].ImageKey != "b" {
		t.Fatalf("MRU order wrong: %+v", keys)
	}
}

// TestReadAfterETagCountsOneHit: a caller that looks a pair up with ETag
// and then reads its blob with Read has made one request, and the store
// counts one hit for it; everything else about Read is Get — the same
// bytes, the same recency refresh, a miss still counted as one.
func TestReadAfterETagCountsOneHit(t *testing.T) {
	s, _, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap := testSnap(6)
	tag, err := s.Put("img1", "", snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("img2", "", testSnap(3)); err != nil {
		t.Fatal(err)
	}

	if got, ok := s.ETag("img1", ""); !ok || got != tag {
		t.Fatalf("ETag = %q, %v, want %q", got, ok, tag)
	}
	got, gotTag, ok := s.Read("img1", "")
	if !ok || gotTag != tag || !snapsEqual(got, snap) {
		t.Fatalf("Read after ETag: ok=%v tag=%q, want the stored snapshot under %q", ok, gotTag, tag)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("ETag + Read counted %d hits and %d misses, want 1 and 0", st.Hits, st.Misses)
	}
	if mru := s.KeysMRU(); mru[0].ImageKey != "img1" {
		t.Fatalf("Read did not refresh recency: MRU head is %q", mru[0].ImageKey)
	}
	if _, _, ok := s.Read("never-written", ""); ok {
		t.Fatal("Read of a pair never written succeeded")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after a failed Read: %d hits and %d misses, want 1 and 1", st.Hits, st.Misses)
	}
}
