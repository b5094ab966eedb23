package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cachestore"
	"repro/internal/faultinject"
	"repro/internal/wire"
)

// TestEntityCacheServesIdenticalBytes: a hit answered from memory is the
// disk hit it stands in for — same bytes, same headers, the same run
// recorded — and reads no blob: the pair's blob file is moved aside for
// the memory hit, and nothing misses or runs. On both surfaces, in both
// formats.
func TestEntityCacheServesIdenticalBytes(t *testing.T) {
	var rows []endingRow
	for _, ep := range []struct{ name, path string }{{"POST /v1/mesh", ""}, {"GET /v1/cache", "/"}} {
		for _, format := range []string{"vtk", "off"} {
			ask := func(r *endingRig) answer {
				if ep.path == "" {
					return r.mesh("?format=" + format)
				}
				return r.probe("?format=" + format)
			}
			moved := with(cacheHit1, "store_misses", 0, "mem:entity,hit", 1, "mem:entity,miss", 0, "mem_bytes:entity", 0)
			if ep.path != "" {
				moved["cache_only_served"] = 1
			}
			rows = append(rows, endingRow{name: ep.name + " " + format, moved: moved,
				setup: func(t *testing.T, r *endingRig) {
					meshed := r.mesh("?format=" + format)
					if n := r.srv.entities.cache.Len(); n != 0 {
						t.Fatalf("a fresh run left %d entities in memory", n)
					}
					if r.ref = ask(r); !bytes.Equal(r.ref.body, meshed.body) {
						t.Fatal("the disk hit's body differs from the run's")
					}
				},
				act: func(t *testing.T, r *endingRig) answer {
					disk := recentRuns(r.srv)
					blobs, _ := filepath.Glob(filepath.Join(r.dir, "blobs", "*.snap"))
					if len(blobs) != 1 || os.Rename(blobs[0], blobs[0]+".aside") != nil {
						t.Fatalf("want one blob to move aside, found %v", blobs)
					}
					defer os.Rename(blobs[0]+".aside", blobs[0])
					a := ask(r)
					a.Header.Del("Date")
					r.ref.Header.Del("Date")
					if !reflect.DeepEqual(a.Header, r.ref.Header) {
						t.Errorf("headers differ from the disk hit's:\n mem  %v\n disk %v", a.Header, r.ref.Header)
					}
					if mem := recentRuns(r.srv); !reflect.DeepEqual(mem[len(mem)-1], disk[len(disk)-1]) {
						t.Errorf("the memory hit recorded %+v, the disk hit %+v", mem[len(mem)-1], disk[len(disk)-1])
					}
					return a
				},
				want: func(r *endingRig) pin { return pinOf(r.ref) }})
		}
	}
	runEndings(t, rows...)
}

// meshOK posts image to /v1/mesh with the given query and returns the
// 200's body and raw ETag header.
func meshOK(t *testing.T, c *http.Client, base, query string, image []byte) ([]byte, string) {
	t.Helper()
	a := send(t, c, "POST", base+"/v1/mesh"+query, octet, image)
	if a.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/mesh%s: status %d: %.200s", query, a.StatusCode, a.body)
	}
	return a.body, a.Header.Get("ETag")
}

func mruKeys(cache *cachestore.Store) []string {
	var keys []string
	for _, ki := range cache.KeysMRU() {
		keys = append(keys, ki.ImageKey)
	}
	return keys
}

// TestEntityCacheFollowsTheStore: the store stays the authority. A
// memory hit refreshes the pair's recency exactly as a disk hit does; a
// pair the index no longer holds — evicted, or quarantined before its
// entity was ever admitted — is never answered from memory.
func TestEntityCacheFollowsTheStore(t *testing.T) {
	other := func(t *testing.T, r *endingRig) { meshOK(t, r.ts.Client(), r.ts.URL, "", nrrdBody(t, 7)) }
	runEndings(t,
		endingRow{name: "a memory hit refreshes recency as a disk hit does",
			setup: func(t *testing.T, r *endingRig) {
				r.meshOK()
				other(t, r)
				r.meshOK() // a disk hit, admitted
				other(t, r)
			},
			act: func(t *testing.T, r *endingRig) answer {
				a := r.mesh("")
				if got := mruKeys(r.srv.cache); got[0] != wire.ImageKey(r.base) {
					t.Errorf("after a memory hit MRU = %.8v, want the hit pair first", got)
				}
				return a
			},
			want: servedVTK, moved: with(cacheHit1, "mem:entity,hit", 1)},
		// A budget of one blob: the other image's write evicts the base's.
		endingRow{name: "an evicted pair re-meshes",
			setup: func(t *testing.T, r *endingRig) {
				r.meshOK()
				other(t, r)
				var largest int64
				for _, ki := range r.srv.cache.KeysMRU() {
					largest = max(largest, ki.Bytes)
				}
				c, _, err := cachestore.Open(cachestore.Config{Dir: t.TempDir(), MaxBytes: largest + 64})
				if err != nil {
					t.Fatal(err)
				}
				r.srv.cache = c
				r.ref = r.mesh("")
				r.meshOK()
				r.meshOK() // a memory hit
				other(t, r)
				if r.srv.entities.hit.Value() != 1 || cached(c, wire.ImageKey(r.base), "") {
					t.Fatal("setup: the base pair was not a memory hit, then evicted")
				}
			},
			act: func(t *testing.T, r *endingRig) answer {
				a := r.mesh("")
				if !bytes.Equal(a.body, r.ref.body) {
					t.Error("the re-mesh of an evicted pair produced different bytes")
				}
				return a
			},
			// Exactly a cold request: the entity still in memory is never
			// looked at.
			want: servedVTK, moved: with(served1, "store_hits", 0, "store_misses", 1, "mem:entity,hit", 0, "mem:entity,miss", 0)},
		endingRow{name: "a corrupt blob never admitted is quarantined and re-meshed",
			setup: func(t *testing.T, r *endingRig) {
				withFaults(faultinject.CacheBitFlip, 1, func() answer { r.ref = r.mesh(""); return r.ref })
			},
			act: func(t *testing.T, r *endingRig) answer {
				a := r.mesh("")
				q, _ := filepath.Glob(filepath.Join(r.dir, "quarantine", "*.snap"))
				if len(q) != 1 || r.srv.cache.Stats().Corrupt != 1 || !bytes.Equal(a.body, r.ref.body) || r.srv.entities.cache.Len() != 0 {
					t.Errorf("%d quarantined blobs, %d corrupt, %d entities: want 1, 1, 0 and the first run's bytes",
						len(q), r.srv.cache.Stats().Corrupt, r.srv.entities.cache.Len())
				}
				return a
			},
			// The index found the pair (one hit), the read found the
			// corruption (one miss), and the job ran.
			want: servedVTK, moved: with(served1, "store_hits", 1, "store_misses", 1, "mem:entity,hit", 0, "mem:entity,miss", 1, "mem_bytes:entity", 0)},
	)
}

// TestEntityCacheAdmission: only a second ask admits, an entity over
// the budget is served and not kept, and under a small budget the
// cache evicts least recently used first with exact byte accounting.
func TestEntityCacheAdmission(t *testing.T) {
	var images [3][]byte
	var sizes [3]int64
	runEndings(t,
		endingRow{name: "never-seen images leave it empty", pool: 2,
			act: func(t *testing.T, r *endingRig) answer {
				base := r.base
				for i := 0; i < 11; i++ {
					meshOK(t, r.ts.Client(), r.ts.URL, "", freshNRRD(base, 1, i))
				}
				r.base = freshNRRD(base, 1, 11)
				return r.mesh("")
			},
			want: servedVTK, moved: mv("accepted", 12, "completed", 12, "recorded", 12, "mem_bytes:entity", 0)},
		endingRow{name: "over the budget: served, not kept",
			setup: func(t *testing.T, r *endingRig) {
				r.srv.entities.cache.MaxBytes = 100
				r.meshOK()
				r.meshOK()
			},
			act: post(""), want: servedVTK, moved: with(cacheHit1, "mem:entity,hit", 0, "mem:entity,miss", 1, "mem_bytes:entity", 0)},
		// A budget that fits the two largest entities but not all three.
		endingRow{name: "LRU order and byte accounting under eviction",
			setup: func(t *testing.T, r *endingRig) {
				for i := range images {
					images[i] = nrrdBody(t, 6+i)
					body, _ := meshOK(t, r.ts.Client(), r.ts.URL, "", images[i])
					sizes[i] = int64(len(body))
				}
				if sizes[0] > sizes[1] || sizes[1] > sizes[2] {
					t.Fatalf("entity sizes %v are not ascending with the phantom's scale", sizes)
				}
				r.srv.entities.cache.MaxBytes = sizes[1] + sizes[2]
			},
			act: func(t *testing.T, r *endingRig) answer {
				var a answer
				// 0 and 1 from disk, admitted; 0 from memory, so 1 is the
				// least recent; 2 admitted evicts 1; 0 from memory; 1 from
				// disk again.
				for _, i := range []int{0, 1, 0, 2, 0, 1} {
					r.base = images[i]
					a = r.mesh("")
				}
				if b, n := r.srv.entities.cache.Bytes(), r.srv.entities.cache.Len(); b != sizes[0]+sizes[1] || n != 2 {
					t.Errorf("resident %d bytes in %d entries, want %d in 2", b, n, sizes[0]+sizes[1])
				}
				return a
			},
			want: servedVTK, moved: mv("accepted", 6, "completed", 6, "cache_served", 6, "recorded", 6, "store_hits", 6, "mem:entity,hit", 2, "mem:entity,miss", 4, "mem:entity,evict", 2)},
	)
}

// TestEntityCacheConcurrentHits: eight clients mix formats, matching and
// stale validators over six cached keys while a ninth keeps pushing new
// entities through a budget that holds about three — every 200 carries
// exactly the bytes and tag its pair first meshed to, whichever path
// served it, and every 304 no body (CI races it).
func TestEntityCacheConcurrentHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2})
	c := ts.Client()
	type entity struct{ sha, etag string }
	images := make([][]byte, 6)
	want := map[string]entity{} // by image index and format
	var largest int64
	for i := range images {
		images[i] = nrrdBody(t, 5+i)
		for _, f := range []string{"vtk", "off"} {
			body, etag := meshOK(t, c, ts.URL, "?format="+f, images[i])
			want[fmt.Sprint(i, f)], largest = entity{sha(body), etag}, max(largest, int64(len(body)))
		}
	}
	srv.entities.cache.MaxBytes = 3 * largest
	var wg sync.WaitGroup
	for w := 0; w < 9; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				if w == 8 { // new keys, each asked for twice so its entity is admitted
					image := freshNRRD(images[0], 3, i/2)
					if a := send(t, c, "POST", ts.URL+"/v1/mesh", octet, image); a.StatusCode != http.StatusOK {
						t.Errorf("inserter key %d: status %d", i/2, a.StatusCode)
					}
					continue
				}
				k, f := rng.Intn(len(images)), []string{"vtk", "off"}[rng.Intn(2)]
				e := want[fmt.Sprint(k, f)]
				hdr, status := []string{"If-None-Match", `"0000000000000000-` + f + `"`}, http.StatusOK
				if rng.Intn(2) == 0 {
					hdr, status = []string{"If-None-Match", e.etag}, http.StatusNotModified
				}
				a := send(t, c, "POST", ts.URL+"/v1/mesh?format="+f, octet, images[k], hdr...)
				if got := (entity{sha(a.body), a.Header.Get("ETag")}); a.StatusCode != status || (status == http.StatusOK && got != e) || (status != http.StatusOK && len(a.body) != 0) {
					t.Errorf("client %d op %d: key %d %s answered %d %+v, want %d %+v", w, i, k, f, a.StatusCode, got, status, e)
				}
			}
		}()
	}
	wg.Wait()
	if b := srv.entities.cache.Bytes(); b > srv.entities.cache.MaxBytes || srv.entities.hit.Value() < 1 || srv.entities.evict.Value() < 1 {
		t.Errorf("%d bytes resident under a budget of %d, %d entity hits, %d evictions: want hits and evictions within the budget",
			b, srv.entities.cache.MaxBytes, srv.entities.hit.Value(), srv.entities.evict.Value())
	}
	if srv.mFailed.Value() != 0 || srv.mAccepted.Value() != srv.mCompleted.Value() {
		t.Errorf("accepted %d, completed %d, failed %d", srv.mAccepted.Value(), srv.mCompleted.Value(), srv.mFailed.Value())
	}
}
