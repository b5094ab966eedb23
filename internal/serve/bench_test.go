package serve

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/img"
)

// BenchmarkHit is the hit path in-process — the place to profile a
// hit-path claim, as BenchmarkRefineW1 is for a kernel claim: a real
// HTTP round trip to a server over a temp cache holding one scale-48
// phantom's mesh. "disk" keeps the entity cache empty (a budget nothing
// fits), so every hit reads, verifies and encodes the blob, as every hit
// did before there was an entity cache; "memory" is the hit as served
// now. MB/s is response body served.
func BenchmarkHit(b *testing.B) {
	var image bytes.Buffer
	if err := img.WriteNRRD(&image, img.SpherePhantom(48)); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"disk", "memory"} {
		b.Run(mode, func(b *testing.B) {
			srv, ts := newTestServer(b, Config{PoolSize: 1})
			if mode == "disk" {
				srv.entities.cache.MaxBytes = 0
			}
			hit := func() int64 {
				resp, err := ts.Client().Post(ts.URL+"/v1/mesh", "application/octet-stream", bytes.NewReader(image.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				return n
			}
			hit()             // the run
			b.SetBytes(hit()) // the first hit: from disk, and in "memory" mode admitted
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
			b.StopTimer()
			want := int64(b.N)
			if mode == "disk" {
				want = 0
			}
			if got := srv.entities.hit.Value(); got != want {
				b.Fatalf("entity hits = %d over %d timed requests, want %d", got, b.N, want)
			}
			// Both modes key every timed upload from the memo: no SHA-256.
			if got := ledger(srv)["mem:upload,hit"]; got != int64(b.N) {
				b.Fatalf("upload-memo hits = %d over %d timed requests, want every one", got, b.N)
			}
		})
	}
}
