// Package cachestore is a crash-safe, disk-backed, content-addressed
// store of encoded core.MeshSnapshot blobs keyed by (image hash,
// quality variant). It is the persistence layer behind the serving
// layer's result cache: identical requests are answered from disk
// across restarts instead of re-meshing.
//
// Crash safety is the design center, not an afterthought, and it rests
// on one kind of durable object — the blob:
//
//   - every blob is written via a uniquely named temp file + fsync +
//     atomic rename + directory fsync, and framed with a magic/version
//     header, its own (image key, variant, creation time) identity and a
//     CRC64 trailer, so a torn write is detectable and a half-written
//     temp file is never visible under a final name;
//   - the blobs are the index: a blob's file name is a pure function of
//     its key, so there is no journal, no checkpoint and nothing else to
//     keep consistent with them. Open reads and verifies every blob,
//     moves corrupt or mislabeled ones to quarantine/ (counted, never
//     served), and orders the survivors by creation time into the LRU;
//   - every read of a blob re-verifies the CRC and the embedded identity
//     before a byte is returned. The serving layer may keep what a
//     verified blob encodes to in memory and answer later asks from that
//     (still consulting the index through ETag first), so the guarantee
//     is: every byte served was encoded from a blob whose CRC and
//     identity were verified when it was read; at-rest corruption after
//     that is found by the next Get of that blob or the next boot's
//     fsck, never served;
//   - a read that misses the in-memory index tries the key's blob path,
//     so any number of processes may share one directory with no
//     coordination: a blob a peer wrote is verified and adopted;
//   - a refused write caches nothing: ENOSPC/EIO on write is counted and
//     returned by Put, the pair stays un-indexed, and the next Put of it
//     tries the disk again. The caller still has its snapshot, so a
//     failing disk costs re-meshes, never a request.
package cachestore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
)

// blobMagic identifies a cachestore blob and its format version. A
// future format change bumps the trailing digits; fsck quarantines
// unknown versions rather than guessing.
const blobMagic = "PI2MCS01"

// crcTable is the CRC64 polynomial every blob trailer and ETag uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// blobMeta is the self-describing header carried inside every blob:
// Open rebuilds the index from these alone — identity from ImageKey and
// Variant, LRU order from CreatedNS.
type blobMeta struct {
	ImageKey  string          `json:"image_key"`
	Variant   string          `json:"variant,omitempty"`
	CreatedNS int64           `json:"created_unix_nano"`
	Summary   core.RunSummary `json:"summary"`
}

// encodeBlob frames a snapshot for disk:
//
//	magic[8] | u32 metaLen | metaJSON | u64 nVerts | u64 nCells |
//	u8 hasLabels | verts (3×f64 each) | cells (4×u32 each) |
//	labels (1 byte each, if present) | u64 CRC64(everything above)
//
// All integers are little-endian. The returned etag is the hex CRC64 —
// the same checksum the trailer carries — so conditional GETs can be
// answered from the index without touching the blob.
func encodeBlob(meta blobMeta, snap *core.MeshSnapshot) (data []byte, etag string, err error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, "", fmt.Errorf("cachestore: encoding blob meta: %w", err)
	}
	if snap.Labels != nil && len(snap.Labels) != len(snap.Cells) {
		return nil, "", fmt.Errorf("cachestore: %d labels for %d cells", len(snap.Labels), len(snap.Cells))
	}
	size := len(blobMagic) + 4 + len(metaJSON) + 8 + 8 + 1 +
		24*len(snap.Verts) + 16*len(snap.Cells) + len(snap.Labels) + 8
	le := binary.LittleEndian
	b := append(make([]byte, 0, size), blobMagic...)
	b = append(le.AppendUint32(b, uint32(len(metaJSON))), metaJSON...)
	b = le.AppendUint64(b, uint64(len(snap.Verts)))
	b = le.AppendUint64(b, uint64(len(snap.Cells)))
	if snap.Labels != nil {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, v := range snap.Verts {
		b = le.AppendUint64(b, math.Float64bits(v.X))
		b = le.AppendUint64(b, math.Float64bits(v.Y))
		b = le.AppendUint64(b, math.Float64bits(v.Z))
	}
	for _, c := range snap.Cells {
		for _, idx := range c {
			b = le.AppendUint32(b, uint32(idx))
		}
	}
	for _, l := range snap.Labels {
		b = append(b, byte(l))
	}
	crc := crc64.Checksum(b, crcTable)
	return le.AppendUint64(b, crc), fmt.Sprintf("%016x", crc), nil
}

// blobFrame is a blob whose frame has been verified: CRC, magic,
// self-described identity, and geometry counts that match the payload
// length exactly.
type blobFrame struct {
	meta           blobMeta
	etag           string
	nVerts, nCells uint64
	hasLabels      bool
	payload        []byte // verts | cells | labels, exactly as declared
}

// parseFrame checks a blob's frame without materializing the snapshot.
// The CRC is checked before anything else is trusted, and the
// declared vertex/cell counts are checked against the actual payload
// length before any allocation, so a corrupt or hostile file cannot
// trigger a giant allocation or an out-of-range read.
func parseFrame(data []byte) (blobFrame, error) {
	var f blobFrame
	if len(data) < len(blobMagic)+4+8+8+1+8 {
		return f, fmt.Errorf("cachestore: blob too short (%d bytes)", len(data))
	}
	if string(data[:len(blobMagic)]) != blobMagic {
		return f, fmt.Errorf("cachestore: bad magic %q", data[:len(blobMagic)])
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	crc := crc64.Checksum(body, crcTable)
	if got := binary.LittleEndian.Uint64(trailer); got != crc {
		return f, fmt.Errorf("cachestore: CRC mismatch (stored %016x, computed %016x)", got, crc)
	}
	f.etag = fmt.Sprintf("%016x", crc)
	p := body[len(blobMagic):]
	metaLen := binary.LittleEndian.Uint32(p[:4])
	p = p[4:]
	if uint64(metaLen) > uint64(len(p)) {
		return f, fmt.Errorf("cachestore: meta length %d exceeds blob", metaLen)
	}
	if err := json.Unmarshal(p[:metaLen], &f.meta); err != nil {
		return f, fmt.Errorf("cachestore: decoding blob meta: %w", err)
	}
	if f.meta.ImageKey == "" {
		return f, fmt.Errorf("cachestore: blob meta has no image key")
	}
	p = p[metaLen:]
	if len(p) < 17 {
		return f, fmt.Errorf("cachestore: truncated geometry header")
	}
	f.nVerts = binary.LittleEndian.Uint64(p[:8])
	f.nCells = binary.LittleEndian.Uint64(p[8:16])
	f.hasLabels = p[16] == 1
	f.payload = p[17:]
	want := 24*f.nVerts + 16*f.nCells
	if f.hasLabels {
		want += f.nCells
	}
	if uint64(len(f.payload)) != want {
		return f, fmt.Errorf("cachestore: payload is %d bytes, header declares %d", len(f.payload), want)
	}
	return f, nil
}

// verifyBlobHeader returns a blob's self-described identity and etag
// if its frame verifies — the boot pass wants the verdict, not the mesh.
func verifyBlobHeader(data []byte) (blobMeta, string, error) {
	f, err := parseFrame(data)
	return f.meta, f.etag, err
}

// decodeBlob verifies and decodes a framed blob.
func decodeBlob(data []byte) (blobMeta, *core.MeshSnapshot, string, error) {
	f, err := parseFrame(data)
	if err != nil {
		return f.meta, nil, "", err
	}
	// One pass over each section, cut to its declared size up front so
	// every element read below is in bounds by construction.
	cellsAt, labelsAt := 24*f.nVerts, 24*f.nVerts+16*f.nCells
	verts, cells, labels := f.payload[:cellsAt], f.payload[cellsAt:labelsAt], f.payload[labelsAt:]
	le := binary.LittleEndian
	snap := &core.MeshSnapshot{
		Summary: f.meta.Summary,
		Verts:   make([]geom.Vec3, f.nVerts),
		Cells:   make([][4]int32, f.nCells),
	}
	for i := range snap.Verts {
		v := verts[24*i:][:24]
		snap.Verts[i] = geom.Vec3{
			X: math.Float64frombits(le.Uint64(v[0:8])),
			Y: math.Float64frombits(le.Uint64(v[8:16])),
			Z: math.Float64frombits(le.Uint64(v[16:24])),
		}
	}
	for i := range snap.Cells {
		c := cells[16*i:][:16]
		for j := range snap.Cells[i] {
			idx := int32(le.Uint32(c[4*j:]))
			// A CRC-valid blob written by us always indexes in range; a
			// hand-crafted one must not crash a reader downstream.
			if idx < 0 || uint64(idx) >= f.nVerts {
				return f.meta, nil, "", fmt.Errorf("cachestore: cell %d references vertex %d of %d", i, idx, f.nVerts)
			}
			snap.Cells[i][j] = idx
		}
	}
	if f.hasLabels {
		snap.Labels = make([]img.Label, f.nCells)
		for i, l := range labels {
			snap.Labels[i] = img.Label(l)
		}
	}
	return f.meta, snap, f.etag, nil
}
