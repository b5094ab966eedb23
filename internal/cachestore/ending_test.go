package cachestore

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// storeEnding is one way an operation on the store ends: a starting
// directory, the one operation, and everything the ending leaves.
type storeEnding struct {
	name   string
	budget int64            // MaxBytes; 0 is the default
	setup  func(f *fixture) // the starting state, on an open store
	op     func(f *fixture)
	fsck   FsckReport // for an op that reopens the store: its report, compared as the daemon logs it
	moved  Stats      // every counter's movement across op; check holds Bytes to the blobs
	index  []string   // the index after op, most recent first
	files  []string   // every file left, as check lists them
	reopen []string   // the keys a store reopened on the directory serves
}

// runEndings runs each ending on a fresh fixture. An op that reopens the
// store moves the counters from zero.
func runEndings(t *testing.T, rows ...storeEnding) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := newFixture(t, r.budget)
			if r.setup != nil {
				r.setup(f)
			}
			s, before := f.s, f.s.Stats()
			r.op(f)
			if f.s != s {
				before = Stats{}
				if got, want := f.rep.String(), r.fsck.String(); got != want {
					t.Errorf("%s, want %s", got, want)
				}
			}
			if got := minus(f.s.Stats(), before); got != r.moved {
				t.Errorf("Stats moved by %+v, want %+v", got, r.moved)
			}
			if got := f.index(); !slices.Equal(got, r.index) {
				t.Errorf("index %q, want %q", got, r.index)
			}
			if got := f.check(); !slices.Equal(got, r.files) {
				t.Errorf("files %q, want %q", got, r.files)
			}
			f.open()
			var served []string
			for _, k := range slices.Sorted(maps.Values(f.names)) {
				if f.get(k, "", false) {
					served = append(served, k)
				}
			}
			if !slices.Equal(served, r.reopen) {
				t.Errorf("a reopen serves %q, want %q", served, r.reopen)
			}
			f.check()
		})
	}
}

// minus is the movement from b to a of every counter but Bytes.
func minus(a, b Stats) Stats {
	return Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Writes: a.Writes - b.Writes,
		WriteErrors: a.WriteErrors - b.WriteErrors, Evictions: a.Evictions - b.Evictions,
		Corrupt: a.Corrupt - b.Corrupt, Adopted: a.Adopted - b.Adopted,
		FsckQuarantined: a.FsckQuarantined - b.FsckQuarantined, Entries: a.Entries - b.Entries}
}

// indexed places a blob per key, written in key order, and reopens the
// store so that it indexes them.
func indexed(keys ...string) func(f *fixture) {
	return func(f *fixture) {
		for i, k := range keys {
			f.blob(k, 3+i, int64(i+1))
		}
		f.open()
	}
}

func get(key string) func(f *fixture) { return func(f *fixture) { f.get(key, "", false) } }

// reopen is the Open ending: a restart on the directory as it stands.
func reopen(f *fixture) { f.open() }

// put is a Put of testSnap(n) that must succeed; with a fault, the store
// must take the write it was given.
func put(key string, n int, faults ...faultinject.Point) func(f *fixture) {
	return func(f *fixture) {
		if err := f.put(key, n, faults...); err != nil {
			f.t.Fatal(err)
		}
	}
}

// blobSize is the length of the blob testSnap(n) frames to.
func blobSize(n int) int64 {
	data, _, _ := encodeBlob(blobMeta{ImageKey: "k", CreatedNS: 1, Summary: testSnap(n).Summary}, testSnap(n))
	return int64(len(data))
}

// TestEveryStoreEnding: a write the disk refuses, tears or corrupts, an
// over-budget write, a write that evicts, a write to a closed store, and
// the one request an ETag lookup and a Read make, and a write of a pair
// a peer wrote first, which adopts the peer's blob. A torn or bit-flipped
// blob is indexed as written, and the read or the boot that meets it
// quarantines it: it is never served. An evicted blob is gone, tomb and
// all, once the put returns. An ETag lookup that misses counts nothing;
// the Read after it counts the miss.
func TestEveryStoreEnding(t *testing.T) {
	runEndings(t,
		storeEnding{name: "a refused write caches nothing",
			op: func(f *fixture) {
				if err := f.put("k", 6, faultinject.CacheWriteFail); !errors.Is(err, syscall.EIO) {
					f.t.Errorf("the refused put returned %v, want EIO", err)
				}
			},
			moved: Stats{WriteErrors: 1}},
		storeEnding{name: "an over-budget put is skipped", budget: 64, op: put("k", 50)},
		storeEnding{name: "a torn write is quarantined by a read",
			setup: put("k", 8, faultinject.CacheTornWrite), op: get("k"),
			moved: Stats{Misses: 1, Corrupt: 1, Entries: -1}, files: []string{"quarantine/k"}},
		storeEnding{name: "a torn write is quarantined by a reopen",
			setup: put("k", 8, faultinject.CacheTornWrite), op: reopen,
			fsck: FsckReport{Quarantined: 1}, moved: Stats{FsckQuarantined: 1}, files: []string{"quarantine/k"}},
		storeEnding{name: "a bit-flipped write is quarantined by a reopen",
			setup: put("k", 8, faultinject.CacheBitFlip), op: reopen,
			fsck: FsckReport{Quarantined: 1}, moved: Stats{FsckQuarantined: 1}, files: []string{"quarantine/k"}},
		storeEnding{name: "ETag then Read counts one hit",
			setup: indexed("a", "b"),
			op: func(f *fixture) {
				if _, ok := f.s.ETag("a", ""); !ok || !f.get("a", "", true) {
					f.t.Error("ETag then Read missed")
				}
			},
			moved: Stats{Hits: 1}, index: []string{"a", "b"}, files: []string{"a", "b"}, reopen: []string{"a", "b"}},
		storeEnding{name: "a pair never written",
			op: func(f *fixture) {
				if _, ok := f.s.ETag("k", ""); ok || f.get("k", "", true) {
					f.t.Error("a pair never written was found")
				}
			},
			moved: Stats{Misses: 1}},
		storeEnding{name: "an evicting put leaves no victim and no tomb", budget: 2 * blobSize(6),
			setup: indexed("a", "b"), op: put("c", 3),
			moved: Stats{Writes: 1, Evictions: 1}, index: []string{"c", "b"},
			files: []string{"b", "c"}, reopen: []string{"b", "c"}},
		storeEnding{name: "a peer wrote the key first",
			setup: func(f *fixture) { f.blob("k", 9, 1) }, op: put("k", 6),
			moved: Stats{Adopted: 1, Entries: 1}, index: []string{"k"}, files: []string{"k"}, reopen: []string{"k"}},
		storeEnding{name: "a peer's write lands between the check and the link",
			op: func(f *fixture) {
				link = func(tmp, path string) error { f.blob("k", 9, 1); return os.Link(tmp, path) }
				defer func() { link = os.Link }()
				put("k", 6)(f)
			},
			moved: Stats{Adopted: 1, Entries: 1}, index: []string{"k"}, files: []string{"k"}, reopen: []string{"k"}},
		storeEnding{name: "a put after Close is refused",
			op: func(f *fixture) {
				f.s.Close()
				if f.put("k", 6) == nil {
					f.t.Error("a closed store took a put")
				}
			}},
	)
}

// TestStorePutGetPersistsAcrossReopen: a Put is durable when it returns,
// and a pair is its image key and its variant.
func TestStorePutGetPersistsAcrossReopen(t *testing.T) {
	k := []string{"k"}
	runEndings(t,
		storeEnding{name: "a durable put", op: put("k", 9),
			moved: Stats{Writes: 1, Entries: 1}, index: k, files: k, reopen: k},
		storeEnding{name: "a hit", setup: indexed("k"), op: get("k"),
			moved: Stats{Hits: 1}, index: k, files: k, reopen: k},
		storeEnding{name: "a miss on another variant", setup: indexed("k"),
			op:    func(f *fixture) { f.get("k", "d=2.5", false) },
			moved: Stats{Misses: 1}, index: k, files: k, reopen: k},
	)
}

// TestEvictionUnlinksOutsideTheLock: an evicting put deletes its
// victim's blob only after releasing the store, so a lookup of another
// key is answered while that delete is still under way.
func TestEvictionUnlinksOutsideTheLock(t *testing.T) {
	f := newFixture(t, 2*blobSize(6))
	indexed("a", "b")(f)
	entered, release := make(chan string), make(chan struct{})
	unlink = func(tomb string) error {
		entered <- tomb
		<-release
		return os.Remove(tomb)
	}
	defer func() { unlink = os.Remove }()
	done := make(chan error)
	go func() {
		_, err := f.s.Put("c", "", testSnap(3))
		done <- err
	}()
	var tomb string
	select {
	case tomb = <-entered:
	case err := <-done:
		t.Fatalf("the put returned (%v) without unlinking a victim", err)
	}
	if _, err := os.Stat(f.blobPath("a")); !os.IsNotExist(err) {
		t.Errorf("the victim's blob is still at its path while its tomb %s waits: %v", filepath.Base(tomb), err)
	}
	looked := make(chan bool, 1)
	go func() {
		_, ok := f.s.ETag("b", "")
		looked <- ok
	}()
	select {
	case ok := <-looked:
		if !ok {
			t.Error("ETag of b missed")
		}
	case <-time.After(10 * time.Second):
		t.Error("ETag of another key waited on the eviction's unlink")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tomb); !os.IsNotExist(err) {
		t.Errorf("the tomb survived its put: %v", err)
	}
}

// TestStoreLRUByBytesEviction: a put past the byte budget evicts the
// least recently used entry, a read having refreshed the other, and
// deletes the victim's blob.
func TestStoreLRUByBytesEviction(t *testing.T) {
	data, _ := encode(t, "k3", 10, time.Now().UnixNano())
	runEndings(t, storeEnding{name: "a put evicts the least recent entry", budget: int64(len(data)) * 5 / 2,
		setup: func(f *fixture) {
			f.blob("k1", 10, 1)
			f.blob("k2", 10, 2)
			f.open()
			f.get("k1", "", false)
		},
		op:    put("k3", 10),
		moved: Stats{Writes: 1, Evictions: 1}, index: []string{"k3", "k1"},
		files: []string{"k1", "k3"}, reopen: []string{"k1", "k3"}})
}

// TestKeysMRUOrder: right after a boot the index holds the blobs in write
// order, newest first, whatever their file names' order (here b, c, a);
// a read moves an entry to the front.
func TestKeysMRUOrder(t *testing.T) {
	abc := []string{"a", "b", "c"}
	runEndings(t,
		storeEnding{name: "a reopen orders the index by write time",
			setup: func(f *fixture) {
				for i, k := range abc {
					f.blob(k, 3, int64(i+1))
				}
			},
			op: reopen, fsck: FsckReport{Verified: 3}, moved: Stats{Entries: 3}, index: []string{"c", "b", "a"}, files: abc, reopen: abc},
		storeEnding{name: "a read refreshes recency", setup: indexed(abc...), op: get("a"),
			moved: Stats{Hits: 1}, index: []string{"a", "c", "b"}, files: abc, reopen: abc},
	)
}

// TestStoreQuarantinesCorruptBlobOnRead: a read re-verifies the blob
// behind an indexed entry; a corrupt one is moved aside and unindexed.
func TestStoreQuarantinesCorruptBlobOnRead(t *testing.T) {
	runEndings(t, storeEnding{name: "a blob corrupted on disk",
		setup: func(f *fixture) {
			indexed("k")(f)
			f.corrupt("k")
		},
		op: get("k"), moved: Stats{Misses: 1, Corrupt: 1, Entries: -1}, files: []string{"quarantine/k"}})
}

// TestFsckQuarantinesAndRecovers: a boot indexes every blob that
// verifies under its own name and quarantines the rest.
func TestFsckQuarantinesAndRecovers(t *testing.T) {
	runEndings(t,
		storeEnding{name: "a blob verifies", setup: func(f *fixture) { f.blob("k", 8, 1) }, op: reopen, fsck: FsckReport{Verified: 1},
			moved: Stats{Entries: 1}, index: []string{"k"}, files: []string{"k"}, reopen: []string{"k"}},
		storeEnding{name: "a corrupt and a misplaced blob",
			setup: func(f *fixture) {
				f.blob("bad", 5, 1)
				f.corrupt("bad")
				data, _ := encode(f.t, "real", 5, 2)
				f.write(f.blobPath("other"), data, false)
			},
			op: reopen, fsck: FsckReport{Quarantined: 2}, moved: Stats{FsckQuarantined: 2}, files: []string{"quarantine/bad", "quarantine/other"}},
	)
}

// TestFsckRebuildsFromBlobsAlone: the blobs are the index. A boot adopts
// a blob no index ever named and ignores an older build's journal.
func TestFsckRebuildsFromBlobsAlone(t *testing.T) {
	runEndings(t, storeEnding{name: "an orphan blob beside an old journal",
		setup: func(f *fixture) {
			f.blob("orphan", 11, 1)
			f.write(filepath.Join(f.dir, "journal"), []byte(`{"op":"put" TORN`), false)
		},
		op: reopen, fsck: FsckReport{Verified: 1}, moved: Stats{Entries: 1}, index: []string{"orphan"},
		files: []string{"journal", "orphan"}, reopen: []string{"orphan"}})
}

// TestBootSweepSparesFreshTempFiles: a *.tmp modified within tmpGrace
// may be a peer's write in flight, so a boot leaves it; one older than
// that is a crash's leftover, in blobs/ or the root, and is removed.
func TestBootSweepSparesFreshTempFiles(t *testing.T) {
	runEndings(t,
		storeEnding{name: "a stale temp file is swept",
			setup: func(f *fixture) {
				f.write(filepath.Join(f.dir, blobsDirName, "x.tmp"), []byte("half a blob"), true)
				f.write(filepath.Join(f.dir, "y.tmp"), nil, true)
			},
			op: reopen, fsck: FsckReport{TmpCleaned: 2}},
		storeEnding{name: "a fresh temp file is spared",
			setup: func(f *fixture) { f.write(filepath.Join(f.dir, blobsDirName, "x.tmp"), []byte("half a blob"), false) },
			op:    reopen, files: []string{"x.tmp"}},
	)
}

// TestLookupAdoptsForeignBlob: a blob a peer wrote after this store's
// boot is found at the key's path by a read, verified, adopted into the
// index and served; this is what lets a replica answer a dead peer's keys.
func TestLookupAdoptsForeignBlob(t *testing.T) {
	k := []string{"k"}
	runEndings(t, storeEnding{name: "a blob a peer wrote", setup: func(f *fixture) { f.blob("k", 9, 1) }, op: get("k"),
		moved: Stats{Hits: 1, Adopted: 1, Entries: 1}, index: k, files: k, reopen: k})
}

// TestLookupQuarantinesCorruptForeignBlob: garbage at the key's blob path
// is quarantined, not served and not adopted.
func TestLookupQuarantinesCorruptForeignBlob(t *testing.T) {
	runEndings(t, storeEnding{name: "garbage at the key path",
		setup: func(f *fixture) { f.write(f.blobPath("k"), []byte("not a snapshot"), false) },
		op:    get("k"), moved: Stats{Misses: 1, Corrupt: 1}, files: []string{"quarantine/k"}})
}

// TestLookupRejectsMisplacedBlob: a valid blob at another key's path
// decodes, but its embedded identity disagrees: it is quarantined, never
// served under the wrong key.
func TestLookupRejectsMisplacedBlob(t *testing.T) {
	runEndings(t, storeEnding{name: "a blob under another key",
		setup: func(f *fixture) {
			data, _ := encode(f.t, "real", 5, 1)
			f.write(f.blobPath("other"), data, false)
		},
		op: get("other"), moved: Stats{Misses: 1, Corrupt: 1}, files: []string{"quarantine/other"}})
}

// TestOversizedPeerBlobSparesTheCache: a peer with a larger budget wrote
// a blob bigger than this store's whole budget. A read serves it without
// indexing it, so nothing is evicted and every blob stays on disk.
func TestOversizedPeerBlobSparesTheCache(t *testing.T) {
	runEndings(t, storeEnding{name: "an oversized blob a peer wrote", budget: 4 << 10,
		setup: func(f *fixture) {
			indexed("s1", "s2", "s3")(f)
			f.blob("huge", 400, 4)
		},
		op: get("huge"), moved: Stats{Hits: 1}, index: []string{"s3", "s2", "s1"},
		files: []string{"huge", "s1", "s2", "s3"}, reopen: []string{"huge", "s1", "s2", "s3"}})
}
