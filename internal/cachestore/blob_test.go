package cachestore

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
)

// TestBlobBytesPinned pins the on-disk format: the bytes — and with
// them the CRC trailer every ETag is — of a fixed (meta, snapshot),
// as a hash recorded from the per-field bytes.Buffer codec this
// package had before its append-based one. A blob written by any
// earlier build must keep decoding, and the same mesh must keep
// earning the same ETag.
func TestBlobBytesPinned(t *testing.T) {
	snap := &core.MeshSnapshot{
		Summary: core.RunSummary{Status: "complete", Elements: 3, CellsPerSec: 1234.5, Threads: 1, Inserts: 99},
		Verts: []geom.Vec3{
			{X: 0, Y: math.Copysign(0, -1), Z: 1},
			{X: -1.5, Y: 1.0 / 3, Z: 1e-300},
			{X: math.MaxFloat64, Y: math.SmallestNonzeroFloat64, Z: math.Inf(1)},
			{X: 47.99999999999999, Y: 0.1, Z: -123456.789},
			{X: math.Pi, Y: math.E, Z: math.Sqrt2},
		},
		Cells:  [][4]int32{{0, 1, 2, 3}, {4, 3, 2, 1}, {1, 0, 4, 2}},
		Labels: []img.Label{1, 255, 0},
	}
	meta := blobMeta{ImageKey: "0123456789abcdef", Variant: "delta=2.5|mre=1.8", CreatedNS: 1700000000123456789, Summary: snap.Summary}

	for _, c := range []struct {
		name      string
		labels    []img.Label
		sum, etag string
	}{
		{"labeled", snap.Labels, "6f3fb857813de6ce18b13e9482385fec42799cdcd6855346b2ac1ecc8b015ca0", "639c72ffa89eea81"},
		{"unlabeled", nil, "579f849b0914e42e317295399087e09d1b3dd73778a7406b819b582dc05621e7", "85425427ff5bad1f"},
	} {
		s := *snap
		s.Labels = c.labels
		data, etag, err := encodeBlob(meta, &s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.sum || etag != c.etag {
			t.Errorf("%s: blob sha256 %s etag %s, pinned %s %s", c.name, got, etag, c.sum, c.etag)
		}
		_, back, backTag, err := decodeBlob(data)
		if err != nil {
			t.Fatalf("%s: decoding: %v", c.name, err)
		}
		if backTag != etag || !snapsEqual(&s, back) || (back.Labels == nil) != (c.labels == nil) {
			t.Errorf("%s: did not round-trip (etag %s)", c.name, backTag)
		}
	}
}
