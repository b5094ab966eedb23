package cachestore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// mustOpen opens a store on dir; the caller decides whether and when to
// Close it.
func mustOpen(t *testing.T, dir string) (*Store, FsckReport) {
	t.Helper()
	s, rep, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s, rep
}

// requireOnlyBlobs asserts the whole durable state under dir: blobs/
// holds verifiable *.snap files (plus *.tmp if allowTmp) and nothing
// else, and the root holds only blobs/ and quarantine/. It returns the
// blob count and byte total.
func requireOnlyBlobs(t *testing.T, dir string, allowTmp bool) (n int, bytes int64) {
	t.Helper()
	root, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range root {
		if name := de.Name(); name != blobsDirName && name != quarantineName {
			t.Errorf("unexpected %s in the cache directory: the blobs are the only durable state", de.Name())
		}
	}
	blobs, err := os.ReadDir(filepath.Join(dir, blobsDirName))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range blobs {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			if !allowTmp {
				t.Errorf("temp file %s left in blobs/", name)
			}
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, blobsDirName, name))
		if err != nil {
			t.Fatal(err)
		}
		meta, _, err := verifyBlobHeader(data)
		if err != nil || blobName(meta.ImageKey, meta.Variant) != name {
			t.Errorf("unverified blob %s visible in blobs/: %v", name, err)
		}
		n++
		bytes += int64(len(data))
	}
	return n, bytes
}

// TestBootSweepSparesFreshTempFiles: a *.tmp modified within tmpGrace
// may be a peer's write in flight, so Open leaves it; the same file
// backdated is a crash's leftover and is removed and counted.
func TestBootSweepSparesFreshTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	s.Close()
	tmp := filepath.Join(dir, blobsDirName, "x.tmp")
	if err := os.WriteFile(tmp, []byte("half a blob"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, rep := mustOpen(t, dir)
	s.Close()
	if _, err := os.Stat(tmp); err != nil || rep.TmpCleaned != 0 {
		t.Fatalf("Open removed a temp file written just now (stat: %v, report %+v)", err, rep)
	}

	if err := os.Chtimes(tmp, time.Time{}, time.Now().Add(-2*tmpGrace)); err != nil {
		t.Fatal(err)
	}
	s, rep = mustOpen(t, dir)
	s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) || rep.TmpCleaned != 1 {
		t.Fatalf("Open kept an abandoned temp file (stat: %v, report %+v)", err, rep)
	}
}

// TestConcurrentPutSameKeyTwoStores: two stores on one directory write
// the same key at once while a third keeps booting on it. Each writer
// renames its own complete temp file, so neither flips to degraded and
// the blob left behind is wholly one writer's.
func TestConcurrentPutSameKeyTwoStores(t *testing.T) {
	dir := t.TempDir()
	a, _ := mustOpen(t, dir)
	defer a.Close()
	b, _ := mustOpen(t, dir)
	defer b.Close()
	snaps := map[*Store]*core.MeshSnapshot{a: testSnap(200), b: testSnap(300)}

	var wg sync.WaitGroup
	for s, snap := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.Put("same", "", snap); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			// A peer booting mid-write sweeps blobs/.
			if _, _, err := Open(Config{Dir: dir}); err != nil {
				t.Errorf("peer boot: %v", err)
			}
		}
	}()
	wg.Wait()

	if a.Degraded() || b.Degraded() {
		t.Fatalf("a healthy writer degraded (a=%v b=%v): writers collided on a temp file", a.Degraded(), b.Degraded())
	}
	if n, _ := requireOnlyBlobs(t, dir, false); n != 1 {
		t.Fatalf("%d blobs on disk, want 1", n)
	}
	for _, s := range []*Store{a, b} {
		got, _, ok := s.Get("same", "")
		if !ok || !(snapsEqual(got, snaps[a]) || snapsEqual(got, snaps[b])) {
			t.Fatalf("Get after concurrent writes: ok=%v, snapshot is neither writer's", ok)
		}
	}
}

// TestPutCrashPoints enumerates every state a kill can leave a Put in —
// its durable steps are: create temp, write, fsync, rename, fsync dir —
// with and without an older blob under the key, and with the leftover
// temp both fresh (spared by the sweep) and stale (removed). After Open,
// Get returns exactly the old or exactly the new snapshot, never a
// hybrid and never an error, and the index matches the directory.
func TestPutCrashPoints(t *testing.T) {
	oldSnap, newSnap, bystander := testSnap(6), testSnap(9), testSnap(4)
	encode := func(key string, created int64, snap *core.MeshSnapshot) ([]byte, string) {
		data, etag, err := encodeBlob(blobMeta{ImageKey: key, CreatedNS: created, Summary: snap.Summary}, snap)
		if err != nil {
			t.Fatal(err)
		}
		return data, etag
	}
	oldData, oldTag := encode("k", 1, oldSnap)
	newData, newTag := encode("k", 2, newSnap)
	byData, byTag := encode("bystander", 1, bystander)

	points := []struct {
		name    string
		temp    []byte // nil = no temp file
		renamed bool
	}{
		{"before-create", nil, false},
		{"temp-created", []byte{}, false},
		{"temp-half-written", newData[:len(newData)/2], false},
		{"temp-complete", newData, false},
		{"renamed", nil, true},
	}
	for _, present := range []bool{false, true} {
		for _, pt := range points {
			for _, stale := range []bool{false, true} {
				if stale && pt.temp == nil {
					continue
				}
				t.Run(fmt.Sprintf("present=%v/%s/stale=%v", present, pt.name, stale), func(t *testing.T) {
					dir := t.TempDir()
					blobs := filepath.Join(dir, blobsDirName)
					if err := os.MkdirAll(blobs, 0o755); err != nil {
						t.Fatal(err)
					}
					write := func(name string, data []byte) string {
						p := filepath.Join(blobs, name)
						if err := os.WriteFile(p, data, 0o644); err != nil {
							t.Fatal(err)
						}
						return p
					}
					write(blobName("bystander", ""), byData)
					if present {
						write(blobName("k", ""), oldData)
					}
					if pt.renamed {
						write(blobName("k", ""), newData)
					}
					if pt.temp != nil {
						p := write(blobName("k", "")+".1234.tmp", pt.temp)
						if stale {
							os.Chtimes(p, time.Time{}, time.Now().Add(-2*tmpGrace))
						}
					}

					s, rep := mustOpen(t, dir)
					defer s.Close()
					wantSnap, wantTag := oldSnap, oldTag
					if pt.renamed {
						wantSnap, wantTag = newSnap, newTag
					}
					got, tag, ok := s.Get("k", "")
					if wantOK := present || pt.renamed; ok != wantOK {
						t.Fatalf("Get ok = %v, want %v", ok, wantOK)
					}
					if ok && (tag != wantTag || !snapsEqual(got, wantSnap)) {
						t.Fatalf("Get returned etag %s, want %s: not exactly the old or the new snapshot", tag, wantTag)
					}
					if got, tag, ok := s.Get("bystander", ""); !ok || tag != byTag || !snapsEqual(got, bystander) {
						t.Fatal("an unrelated entry was disturbed")
					}
					wantCleaned := 0
					if stale {
						wantCleaned = 1
					}
					if rep.TmpCleaned != wantCleaned || rep.Quarantined != 0 {
						t.Fatalf("fsck %+v, want %d tmp cleaned and nothing quarantined", rep, wantCleaned)
					}
					n, bytes := requireOnlyBlobs(t, dir, !stale)
					if st := s.Stats(); s.Len() != n || st.Bytes != bytes {
						t.Fatalf("index holds %d entries / %d bytes, directory %d / %d", s.Len(), st.Bytes, n, bytes)
					}
				})
			}
		}
	}
}

// TestTwoStoresOneDirectory is the router_hot shape: two stores share a
// directory with no coordination, interleave writes, and close in either
// order. A third store opened afterwards serves everything either wrote,
// byte-identical and under its original ETag, in write order — and the
// directory holds blobs and nothing else to keep consistent with them.
func TestTwoStoresOneDirectory(t *testing.T) {
	for _, aFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("closeAFirst=%v", aFirst), func(t *testing.T) {
			dir := t.TempDir()
			a, _ := mustOpen(t, dir)
			b, _ := mustOpen(t, dir)

			type written struct {
				key, etag string
				snap      *core.MeshSnapshot
			}
			var order []written // oldest first
			put := func(s *Store, key string, n int) {
				snap := testSnap(n)
				etag, err := s.Put(key, "", snap)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range order {
					if w.key == key {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
				order = append(order, written{key, etag, snap})
			}
			for i := 0; i < 4; i++ {
				put(a, fmt.Sprintf("a%d", i), 3+i)
				put(b, fmt.Sprintf("b%d", i), 10+i)
			}
			put(a, "both", 20)
			put(b, "both", 21) // the later write wins whole
			// Each serves what the other wrote without a restart.
			if got, tag, ok := b.Get("a0", ""); !ok || tag != order[0].etag || !snapsEqual(got, order[0].snap) {
				t.Fatal("b cannot read a's blob")
			}
			if a.Degraded() || b.Degraded() {
				t.Fatal("a store degraded on a healthy shared directory")
			}

			first, second := a, b
			if !aFirst {
				first, second = b, a
			}
			first.Close()
			put(second, "late", 30) // the survivor keeps writing after its peer closed
			second.Close()

			if n, _ := requireOnlyBlobs(t, dir, false); n != len(order) {
				t.Fatalf("%d blobs on disk, want %d", n, len(order))
			}
			c, rep := mustOpen(t, dir)
			defer c.Close()
			if rep != (FsckReport{Verified: len(order)}) {
				t.Fatalf("reopen fsck %+v, want %d verified and nothing else", rep, len(order))
			}
			keys := c.KeysMRU()
			for i, w := range order {
				if ki := keys[len(keys)-1-i]; ki.ImageKey != w.key || ki.ETag != w.etag {
					t.Fatalf("KeysMRU[%d] = %s/%s, want %s/%s (write order)", len(keys)-1-i, ki.ImageKey, ki.ETag, w.key, w.etag)
				}
			}
			for _, w := range order {
				if got, tag, ok := c.Get(w.key, ""); !ok || tag != w.etag || !snapsEqual(got, w.snap) {
					t.Fatalf("%s: served ok=%v etag=%s, want the bytes written under %s", w.key, ok, tag, w.etag)
				}
			}
			requireOnlyBlobs(t, dir, false)
		})
	}
}

// TestOversizedPeerBlobSparesTheCache: a peer with a larger budget writes
// a blob bigger than a reader's whole budget. The reader serves it, from
// a lookup and after a reopen, but indexes it neither time, so its other
// entries and their blob files in the shared directory survive.
func TestOversizedPeerBlobSparesTheCache(t *testing.T) {
	dir := t.TempDir()
	writer, _ := mustOpen(t, dir)
	defer writer.Close()
	openReader := func() *Store {
		s, _, err := Open(Config{Dir: dir, MaxBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	reader := openReader()
	small := []string{"s1", "s2", "s3"}
	for i, key := range small {
		if _, err := reader.Put(key, "", testSnap(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	huge := testSnap(400)
	if _, err := writer.Put("huge", "", huge); err != nil {
		t.Fatal(err)
	}
	survives := func(s *Store, when string) {
		t.Helper()
		if got, _, ok := s.Get("huge", ""); !ok || !snapsEqual(got, huge) {
			t.Fatalf("%s: the peer's oversized blob was not served", when)
		}
		if st := s.Stats(); st.Entries != len(small) || st.Evictions != 0 || st.Bytes > 4<<10 || s.Contains("huge", "") {
			t.Fatalf("%s: the oversized blob was indexed: %+v", when, st)
		}
		for _, key := range small {
			if _, err := os.Stat(filepath.Join(dir, blobsDirName, blobName(key, ""))); err != nil {
				t.Fatalf("%s: %s's blob file is gone: %v", when, key, err)
			}
			if _, _, ok := s.Get(key, ""); !ok {
				t.Fatalf("%s: %s is no longer served", when, key)
			}
		}
	}
	survives(reader, "lookup")
	reader.Close()
	reopened := openReader()
	defer reopened.Close()
	survives(reopened, "reopen")
}
