package cachestore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentPutSameKeyTwoStores: two stores on one directory write
// the same key at once while a third keeps booting on it. Each writer
// links its own complete temp file or adopts the blob a link already
// published, so every Put succeeds, the blob left behind is wholly one
// writer's, and both index its tag.
func TestConcurrentPutSameKeyTwoStores(t *testing.T) {
	f := newFixture(t, 0)
	a := f.s
	f.open()
	b := f.s
	snaps := map[*Store]int{a: 200, b: 300}

	// A peer keeps booting on the directory, sweeping blobs/, for as long
	// as the writes last.
	stop := make(chan struct{})
	var boots, writers sync.WaitGroup
	boots.Add(1)
	go func() {
		defer boots.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := Open(Config{Dir: f.dir}); err != nil {
				t.Errorf("peer boot: %v", err)
				return
			}
		}
	}()
	for s, n := range snaps {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2; i++ {
				if _, err := s.Put("same", "", testSnap(n)); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	boots.Wait()

	// Whichever published first, both writers index the blob on disk.
	data, _ := os.ReadFile(f.blobPath("same"))
	_, onDisk, err := verifyBlobHeader(data)
	for _, s := range []*Store{a, b} {
		if tag, _ := s.ETag("same", ""); err != nil || tag != onDisk {
			t.Errorf("a writer's ETag %s, the blob on disk %s (%v)", tag, onDisk, err)
		}
	}
	f.open()
	if files := f.check(); !slices.Equal(files, []string{"same"}) {
		t.Fatalf("files %q, want the one blob", files)
	}
	for _, s := range []*Store{a, b} {
		got, _, ok := s.Get("same", "")
		if !ok || !(snapsEqual(got, testSnap(snaps[a])) || snapsEqual(got, testSnap(snaps[b]))) {
			t.Fatalf("Get after concurrent writes: ok=%v, snapshot is neither writer's", ok)
		}
	}
}

// TestPutCrashPoints enumerates every state a kill can leave a Put in —
// its durable steps are: create temp, write, fsync, link, fsync dir,
// unlink temp —
// with and without an older blob under the key, and with the leftover
// temp both fresh (spared by the sweep) and stale (removed). After Open,
// Get returns exactly the old or exactly the new snapshot, never a
// hybrid and never an error, and the index matches the directory.
func TestPutCrashPoints(t *testing.T) {
	newData, newW := encode(t, "k", 9, 2)
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
		{"linked-temp-not-yet-unlinked", newData, true},
	}
	for _, present := range []bool{false, true} {
		for _, pt := range points {
			for _, stale := range []bool{false, true} {
				if stale && pt.temp == nil {
					continue
				}
				t.Run(fmt.Sprintf("present=%v/%s/stale=%v", present, pt.name, stale), func(t *testing.T) {
					f := newFixture(t, 0)
					f.blob("bystander", 4, 1)
					keys := []string{"bystander"}
					if present {
						f.blob("k", 6, 1)
					}
					if pt.renamed {
						f.write(f.blobPath("k"), newData, false)
						f.written["k"] = newW
					}
					if present || pt.renamed {
						keys = append(keys, "k")
					}
					want := slices.Clone(keys)
					if pt.temp != nil {
						tmp := blobName("k", "") + ".1234.tmp"
						f.write(filepath.Join(f.dir, blobsDirName, tmp), pt.temp, stale)
						if !stale {
							want = append(want, tmp)
						}
					}
					f.open()

					if ok := f.get("k", "", false); ok != (present || pt.renamed) {
						t.Fatalf("Get ok = %v, want %v", ok, present || pt.renamed)
					}
					if !f.get("bystander", "", false) {
						t.Fatal("an unrelated entry was disturbed")
					}
					wantCleaned := 0
					if stale {
						wantCleaned = 1
					}
					if f.rep.TmpCleaned != wantCleaned || f.rep.Quarantined != 0 {
						t.Fatalf("fsck %+v, want %d tmp cleaned and nothing quarantined", f.rep, wantCleaned)
					}
					slices.Sort(want)
					if files, index := f.check(), slices.Sorted(slices.Values(f.index())); !slices.Equal(files, want) || !slices.Equal(index, keys) {
						t.Fatalf("files %q, index %q: want %q and %q", files, index, want, keys)
					}
				})
			}
		}
	}
}

// TestTwoStoresOneDirectory is the router_hot shape: two stores share a
// directory with no coordination, interleave writes (one key both
// write), and close in either order. A third store opened afterwards serves everything either wrote,
// byte-identical and under its original ETag, in write order — and the
// directory holds blobs and nothing else to keep consistent with them.
func TestTwoStoresOneDirectory(t *testing.T) {
	for _, aFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("closeAFirst=%v", aFirst), func(t *testing.T) {
			f := newFixture(t, 0)
			a := f.s
			f.open()
			b := f.s

			var order []string // oldest first
			put := func(s *Store, key string, n int) {
				f.s = s
				if err := f.put(key, n); err != nil {
					t.Fatal(err)
				}
				order = append(slices.DeleteFunc(order, func(k string) bool { return k == key }), key)
			}
			put(a, "a0", 3)
			put(b, "b0", 10)
			put(a, "both", 20)
			put(b, "both", 21) // the first write wins: b adopts a's blob
			// Each serves what the other wrote without a restart.
			if f.s = b; !f.get("a0", "", false) {
				t.Fatal("b cannot read a's blob")
			}

			first, second := a, b
			if !aFirst {
				first, second = b, a
			}
			first.Close()
			put(second, "late", 30) // the survivor keeps writing after its peer closed
			second.Close()

			f.open()
			if f.rep != (FsckReport{Verified: len(order)}) {
				t.Fatalf("reopen fsck %+v, want %d verified and nothing else", f.rep, len(order))
			}
			want := slices.Clone(order)
			slices.Reverse(want)
			if mru := f.index(); !slices.Equal(mru, want) {
				t.Fatalf("index %q after the reopen, want write order newest first %q", mru, want)
			}
			for _, k := range order {
				if !f.get(k, "", false) {
					t.Fatalf("%s is not served after the reopen", k)
				}
			}
			if files := f.check(); !slices.Equal(files, slices.Sorted(slices.Values(order))) {
				t.Fatalf("files %q, want one blob per key written", files)
			}
		})
	}
}
