package cachestore

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	return slices.Equal(a.Verts, b.Verts) && slices.Equal(a.Cells, b.Cells) &&
		slices.Equal(a.Labels, b.Labels) && a.Summary.Elements == b.Summary.Elements
}

func TestBlobRoundTrip(t *testing.T) {
	snap := testSnap(7)
	data, etag, err := encodeBlob(blobMeta{ImageKey: "abc", Variant: "delta=2.5", CreatedNS: 42, Summary: snap.Summary}, snap)
	if err != nil || len(etag) != 16 {
		t.Fatalf("encode: etag %q, %v", etag, err)
	}
	meta, got, gotTag, err := decodeBlob(data)
	if err != nil || gotTag != etag || !snapsEqual(snap, got) {
		t.Fatalf("decode: etag %q (want %q), %v", gotTag, etag, err)
	}
	if meta.ImageKey != "abc" || meta.Variant != "delta=2.5" || meta.CreatedNS != 42 {
		t.Fatalf("meta mismatch: %+v", meta)
	}
	// verifyBlobHeader must agree with the full decoder.
	if hMeta, hTag, err := verifyBlobHeader(data); err != nil || hTag != etag || hMeta != meta {
		t.Fatalf("header verify disagrees: %q %+v %v", hTag, hMeta, err)
	}
}

func TestBlobDecodeRejectsCorruption(t *testing.T) {
	data, _, err := encodeBlob(blobMeta{ImageKey: "k"}, testSnap(5))
	if err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x01
	for name, d := range map[string][]byte{
		"empty":     {},
		"short":     data[:10],
		"truncated": data[:len(data)-3],
		"badmagic":  append([]byte("XXXXXXXX"), data[8:]...),
		"bitflip":   flip,
	} {
		if _, _, _, err := decodeBlob(d); err == nil {
			t.Errorf("%s: decode accepted corrupt blob", name)
		}
		if _, _, err := verifyBlobHeader(d); err == nil {
			t.Errorf("%s: verifyBlobHeader accepted corrupt blob", name)
		}
	}
}

// fixture is the package's one test store: a Store over a fresh
// directory. Its helpers put on-disk states into place with plain
// writes, with no fsync, so a state costs microseconds to make and to
// delete; only put goes through the store's durable write path.
type fixture struct {
	t       *testing.T
	dir     string
	budget  int64
	s       *Store
	rep     FsckReport
	written map[string]written // by key: what a serve of it must return
	names   map[string]string  // blob file name → the key it belongs to
}

type written struct {
	snap *core.MeshSnapshot
	etag string
}

func newFixture(t *testing.T, budget int64) *fixture {
	f := &fixture{t: t, dir: t.TempDir(), budget: budget, written: map[string]written{}, names: map[string]string{}}
	f.open()
	return f
}

// open opens a store on the fixture's directory in place of the current
// one, which is abandoned without Close, as a kill leaves it.
func (f *fixture) open() {
	f.t.Helper()
	s, rep, err := Open(Config{Dir: f.dir, MaxBytes: f.budget})
	if err != nil {
		f.t.Fatal(err)
	}
	f.s, f.rep = s, rep
}

// blobPath names key's blob (variant "") and remembers the key.
func (f *fixture) blobPath(key string) string {
	name := blobName(key, "")
	f.names[name] = key
	return filepath.Join(f.dir, blobsDirName, name)
}

// write puts data at path; a stale file is backdated past tmpGrace.
func (f *fixture) write(path string, data []byte, stale bool) {
	f.t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		f.t.Fatal(err)
	}
	if stale {
		os.Chtimes(path, time.Time{}, time.Now().Add(-2*tmpGrace))
	}
}

// encode frames testSnap(n) as key's blob, as a peer's Put would.
func encode(t *testing.T, key string, n int, created int64) ([]byte, written) {
	t.Helper()
	snap := testSnap(n)
	data, etag, err := encodeBlob(blobMeta{ImageKey: key, CreatedNS: created, Summary: snap.Summary}, snap)
	if err != nil {
		t.Fatal(err)
	}
	return data, written{snap, etag}
}

// blob places key's blob as a peer, or an earlier run, wrote it.
func (f *fixture) blob(key string, n int, created int64) {
	data, w := encode(f.t, key, n, created)
	f.write(f.blobPath(key), data, false)
	f.written[key] = w
}

// corrupt flips one byte of key's blob on disk.
func (f *fixture) corrupt(key string) {
	data, _ := os.ReadFile(f.blobPath(key))
	data[len(data)/2] ^= 0x80
	f.write(f.blobPath(key), data, false)
}

// put is the store's own Put of testSnap(n) under key, with each fault
// armed to fire once. A Put that finds key's blob written keeps it.
func (f *fixture) put(key string, n int, faults ...faultinject.Point) error {
	f.blobPath(key)
	cfg := faultinject.Config{Rates: map[faultinject.Point]float64{}, MaxFires: map[faultinject.Point]int64{}}
	for _, p := range faults {
		cfg.Rates[p], cfg.MaxFires[p] = 1, 1
	}
	restore := faultinject.Enable(faultinject.New(cfg))
	defer restore()
	snap := testSnap(n)
	etag, err := f.s.Put(key, "", snap)
	if err == nil && len(faults) == 0 && etag != f.written[key].etag { // else it adopted the blob there
		f.written[key] = written{snap, etag}
	}
	return err
}

// get is Get (or, with read, Read) of key's pair. What it serves must be
// exactly what was last written under key, etag included.
func (f *fixture) get(key, variant string, read bool) bool {
	f.t.Helper()
	get := f.s.Get
	if read {
		get = f.s.Read
	}
	snap, etag, ok := get(key, variant)
	if w := f.written[key]; ok && (variant != "" || w.snap == nil || etag != w.etag || !snapsEqual(snap, w.snap)) {
		f.t.Fatalf("%s/%q served etag %s, not the snapshot written under it (%s)", key, variant, etag, w.etag)
	}
	return ok
}

// index lists the indexed keys, most recently used first.
func (f *fixture) index() []string {
	var keys []string
	for _, ki := range f.s.KeysMRU() {
		keys = append(keys, ki.ImageKey)
	}
	return keys
}

// check is the fixture's one state check. blobs/ holds only blobs that
// verify under their own name, besides *.tmp files; every indexed entry's
// blob is there; Stats, Len and the index agree on entries and bytes.
// It returns every file under the directory, sorted: a blob by its key,
// a quarantined one as quarantine/<key>, anything else by its name.
func (f *fixture) check() []string {
	f.t.Helper()
	var files []string
	sizes := map[string]int64{}
	filepath.WalkDir(f.dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(f.dir, path)
		dir, name := filepath.Split(rel)
		if key, ok := f.names[name]; ok {
			name = key
		}
		if dir != blobsDirName+"/" {
			files = append(files, dir+name)
			return nil
		}
		if !strings.HasSuffix(name, ".tmp") {
			data, _ := os.ReadFile(path)
			meta, _, err := verifyBlobHeader(data)
			if err != nil || blobName(meta.ImageKey, meta.Variant) != de.Name() {
				f.t.Errorf("unverified blob %s visible in blobs/: %v", name, err)
			}
			sizes[meta.ImageKey] = int64(len(data))
		}
		files = append(files, name)
		return nil
	})
	var n int
	var bytes int64
	for _, ki := range f.s.KeysMRU() {
		if sizes[ki.ImageKey] != ki.Bytes {
			f.t.Errorf("%s is indexed at %d bytes, its blob holds %d", ki.ImageKey, ki.Bytes, sizes[ki.ImageKey])
		}
		n, bytes = n+1, bytes+ki.Bytes
	}
	if st := f.s.Stats(); st.Entries != n || f.s.Len() != n || st.Bytes != bytes {
		f.t.Errorf("Stats holds %d entries / %d bytes, Len %d, the index %d / %d", st.Entries, st.Bytes, f.s.Len(), n, bytes)
	}
	slices.Sort(files)
	return files
}
