package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"mime/multipart"
	"sync"
	"sync/atomic"
	"testing"
)

// tally stands in for the daemon's metrics series.
type tally struct{ atomic.Int64 }

func (t *tally) Inc()        { t.Add(1) }
func (t *tally) Set(n int64) { t.Store(n) }

func newTestKeys() (u *UploadKeys, hit, miss, resident *tally) {
	hit, miss, resident = new(tally), new(tally), new(tally)
	return NewUploadKeys(hit, miss, new(tally), resident), hit, miss, resident
}

// flipped returns a copy of b with byte i changed: a caller never writes
// to a body it has passed to Of.
func flipped(b []byte, i int) []byte {
	c := bytes.Clone(b)
	c[i] ^= 0x40
	return c
}

// TestUploadKeysIsImageKey: Of is ImageKey for random bodies, for every
// repeat (the third and later calls answered from the memo), for empty
// input, and for a copy of an admitted body with one byte flipped at its
// start, middle or end.
func TestUploadKeysIsImageKey(t *testing.T) {
	u, hit, miss, _ := newTestKeys()
	rng := rand.New(rand.NewSource(1))
	bodies := [][]byte{nil, {}, {0}}
	for _, n := range []int{1, 2, 63, 64, 65, 4096, 100_000} {
		b := make([]byte, n)
		rng.Read(b)
		bodies = append(bodies, b)
	}
	check := func(b []byte) {
		t.Helper()
		if got, want := u.Of(b), ImageKey(b); got != want {
			t.Fatalf("Of(%d bytes) = %s, want %s", len(b), got, want)
		}
	}
	for round := 0; round < 4; round++ {
		for _, b := range bodies {
			check(b)
		}
	}
	// nil and {} are one body: everything after the first two rounds hits.
	if h, m := hit.Load(), miss.Load(); h < int64(2*len(bodies)) || h+m != int64(4*len(bodies)) {
		t.Fatalf("hits/misses = %d/%d over %d calls: repeats were not answered from the memo", h, m, 4*len(bodies))
	}
	for _, b := range bodies {
		for _, i := range []int{0, len(b) / 2, len(b) - 1} {
			if len(b) == 0 {
				continue
			}
			f := flipped(b, i)
			check(f)
			check(f)
			check(f)
			check(b)
		}
	}
}

// TestUploadKeysCollision: with every body fingerprinting alike, two
// different admitted bodies still get their own keys, whichever holds
// the slot.
func TestUploadKeysCollision(t *testing.T) {
	u, hit, _, _ := newTestKeys()
	u.fingerprint = func([]byte) uint64 { return 7 }
	a, b := []byte("image a"), []byte("image b")
	for i := 0; i < 4; i++ {
		for _, body := range [][]byte{a, a, b, b} {
			if got, want := u.Of(body), ImageKey(body); got != want {
				t.Fatalf("round %d: Of(%q) = %s, want %s", i, body, got, want)
			}
		}
	}
	if hit.Load() == 0 {
		t.Fatal("a body that kept its slot was never answered from the memo")
	}
}

// TestUploadKeysOneShot: uploads seen once retain nothing.
func TestUploadKeysOneShot(t *testing.T) {
	u, _, _, resident := newTestKeys()
	for i := 0; i < 1000; i++ {
		u.Of([]byte(fmt.Sprintf("one-shot upload %d", i)))
	}
	if st := u.Stats(); st != (MemCacheStats{}) || resident.Load() != 0 {
		t.Fatalf("1000 one-shot uploads left %+v (gauge %d), want nothing", st, resident.Load())
	}
}

// TestUploadKeysBudget: a body is charged its capacity, the least
// recently used body is evicted first and counted, and one larger than
// the whole budget is never retained.
func TestUploadKeysBudget(t *testing.T) {
	hit, evict, resident := new(tally), new(tally), new(tally)
	u := NewUploadKeys(hit, new(tally), evict, resident)
	u.index.MaxBytes = 300
	body := func(tag byte) []byte { return append(make([]byte, 0, 100), tag, tag) }
	admit := func(b []byte) { u.Of(b); u.Of(b) }
	a, b, c, d := body('a'), body('b'), body('c'), body('d')
	admit(a)
	admit(b)
	admit(c)
	if st := u.Stats(); st != (MemCacheStats{Entries: 3, Bytes: 300}) || resident.Load() != 300 {
		t.Fatalf("three 2-byte bodies of capacity 100 are charged %+v (gauge %d), want 3 entries / 300 bytes", st, resident.Load())
	}
	u.Of(a) // b is now the least recently used
	admit(d)
	before := hit.Load()
	for _, x := range [][]byte{a, c, d} {
		u.Of(x)
	}
	if got := hit.Load() - before; got != 3 {
		t.Fatalf("%d of a, c, d hit after d evicted one entry, want all 3: the wrong body was evicted", got)
	}
	before = hit.Load()
	u.Of(b)
	if hit.Load() != before {
		t.Fatal("b, the least recently used, is still retained")
	}
	huge := make([]byte, 301)
	admit(huge)
	if st := u.Stats(); st.Bytes > 300 || st.Entries != 3 || evict.Load() != 2 {
		t.Fatalf("a body over the budget changed the memo to %+v after %d evictions, want 2 (d pushed out b, b back in pushed out a)", st, evict.Load())
	}
}

// TestUploadKeysConcurrent: many goroutines keying overlapping bodies
// all get ImageKey; run it under -race.
func TestUploadKeysConcurrent(t *testing.T) {
	u, hit, _, _ := newTestKeys()
	u.index.MaxBytes = 4 << 10 // small enough that eviction runs too
	bodies := make([][]byte, 16)
	keys := make([]string, len(bodies))
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{byte(i)}, 512+i)
		keys[i] = ImageKey(bodies[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				i := (g*7 + n) % len(bodies)
				if got := u.Of(bodies[i]); got != keys[i] {
					t.Errorf("Of(body %d) = %s, want %s", i, got, keys[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hit.Load() == 0 {
		t.Error("no concurrent call was answered from the memo")
	}
	if st := u.Stats(); st.Bytes > u.index.MaxBytes {
		t.Errorf("memo holds %d bytes over a %d budget", st.Bytes, u.index.MaxBytes)
	}
}

// TestSplitBufferedAliases: a plain body read whole is its own image —
// the bytes the router forwards are the bytes it keys — and a multipart
// one still splits.
func TestSplitBufferedAliases(t *testing.T) {
	raw := []byte("NRRD0004\nraw image bytes")
	spec, image, err := SplitBuffered("application/octet-stream", raw)
	if err != nil || spec != nil || len(image) != len(raw) || &image[0] != &raw[0] {
		t.Fatalf("plain body: spec %q, err %v, image aliases raw: %v", spec, err, len(image) > 0 && &image[0] == &raw[0])
	}

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("spec", `{"format":"off"}`)
	mw.WriteField("image", "NRRD0004\npart bytes")
	mw.Close()
	spec, image, err = SplitBuffered(mw.FormDataContentType(), buf.Bytes())
	if err != nil || string(spec) != `{"format":"off"}` || string(image) != "NRRD0004\npart bytes" {
		t.Fatalf("multipart body: spec %q, image %q, err %v", spec, image, err)
	}
}
