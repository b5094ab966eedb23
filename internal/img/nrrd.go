package img

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/geom"
)

// NRRD support for segmented label images: the format the paper's
// input atlases ship in (3D Slicer / ITK ecosystems). The subset
// implemented covers label maps — 3-dimensional uint8 volumes with
// raw or gzip encoding and attached data — which is what PI2M
// consumes; richer NRRD features (detached data, other sample types,
// key/value metadata) are rejected with a clear error.

// WriteNRRD serializes the image as an attached-data NRRD with raw
// encoding.
func WriteNRRD(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "NRRD0004")
	fmt.Fprintln(bw, "# PI2M segmented label image")
	fmt.Fprintln(bw, "type: uint8")
	fmt.Fprintln(bw, "dimension: 3")
	fmt.Fprintf(bw, "sizes: %d %d %d\n", im.NX, im.NY, im.NZ)
	fmt.Fprintf(bw, "spacings: %g %g %g\n", im.Spacing.X, im.Spacing.Y, im.Spacing.Z)
	fmt.Fprintln(bw, "encoding: raw")
	fmt.Fprintln(bw, "endian: little") // uint8: endianness moot, field expected
	fmt.Fprintln(bw)
	if _, err := bw.Write(labelBytes(im)); err != nil {
		return err
	}
	return bw.Flush()
}

// labelBytes exposes the raw voxel data in NRRD's fastest-first (x,
// then y, then z) order, which matches the internal layout.
func labelBytes(im *Image) []byte {
	out := make([]byte, len(im.data))
	for i, l := range im.data {
		out[i] = byte(l)
	}
	return out
}

// Hostile-input bounds for ReadNRRD: a single header line (NRRD
// headers are short field lines) and the whole header (fields plus
// comments) before the data separator.
const (
	maxHeaderLine  = 64 << 10
	maxHeaderBytes = 1 << 20
)

// readHeaderLine reads one newline-terminated header line with both
// caps enforced, so a malicious stream cannot make the parser buffer
// unbounded input. budget is the remaining whole-header allowance.
func readHeaderLine(br *bufio.Reader, budget *int) (string, error) {
	var sb strings.Builder
	for {
		chunk, err := br.ReadSlice('\n')
		*budget -= len(chunk)
		if *budget < 0 {
			return "", fmt.Errorf("nrrd: header exceeds %d bytes", maxHeaderBytes)
		}
		sb.Write(chunk)
		if sb.Len() > maxHeaderLine {
			return "", fmt.Errorf("nrrd: header line exceeds %d bytes", maxHeaderLine)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return sb.String(), err
	}
}

// gzipReaders recycles gzip decoders across ReadNRRD calls: a fresh
// one allocates ~40 KiB (a 32 KiB window and its Huffman tables),
// 0.05 B per voxel of a knee-96 decode.
var gzipReaders sync.Pool

// ReadNRRD parses an attached-data uint8 label NRRD.
func ReadNRRD(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	budget := maxHeaderBytes
	magic, err := readHeaderLine(br, &budget)
	if err != nil {
		return nil, fmt.Errorf("nrrd: reading magic: %w", err)
	}
	if !strings.HasPrefix(magic, "NRRD") {
		return nil, fmt.Errorf("nrrd: bad magic %q", strings.TrimSpace(magic))
	}

	var (
		sizes    []int
		spacings = []float64{1, 1, 1}
		encoding = "raw"
		dim      = 0
		typ      = ""
	)
	for {
		line, err := readHeaderLine(br, &budget)
		if err != nil {
			return nil, fmt.Errorf("nrrd: header ended prematurely: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break // header/data separator
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("nrrd: malformed header line %q", line)
		}
		value = strings.TrimSpace(value)
		switch strings.TrimSpace(strings.ToLower(key)) {
		case "type":
			typ = value
		case "dimension":
			dim, err = strconv.Atoi(value)
			if err != nil {
				return nil, fmt.Errorf("nrrd: bad dimension %q", value)
			}
		case "sizes":
			for _, f := range strings.Fields(value) {
				n, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("nrrd: bad sizes %q", value)
				}
				sizes = append(sizes, n)
			}
		case "spacings", "spacing":
			spacings = spacings[:0]
			for _, f := range strings.Fields(value) {
				x, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("nrrd: bad spacings %q", value)
				}
				spacings = append(spacings, x)
			}
		case "encoding":
			encoding = strings.ToLower(value)
		case "data file", "datafile":
			return nil, fmt.Errorf("nrrd: detached data files are not supported")
		}
	}

	switch typ {
	case "uint8", "uchar", "unsigned char":
	default:
		return nil, fmt.Errorf("nrrd: unsupported type %q (label maps are uint8)", typ)
	}
	if dim != 3 || len(sizes) != 3 {
		return nil, fmt.Errorf("nrrd: need a 3-dimensional image, got dim=%d sizes=%v", dim, sizes)
	}
	// maxVoxels bounds hostile headers: a 256M-voxel label volume is
	// beyond anything this library meshes.
	const maxVoxels = 1 << 28
	total := 1
	for _, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("nrrd: non-positive size in %v", sizes)
		}
		if total > maxVoxels/n {
			return nil, fmt.Errorf("nrrd: image of %v voxels exceeds the %d limit", sizes, maxVoxels)
		}
		total *= n
	}
	if len(spacings) != 3 {
		return nil, fmt.Errorf("nrrd: need 3 spacings, got %v", spacings)
	}
	for _, s := range spacings {
		if !(s > 0) || math.IsInf(s, 1) { // rejects NaN, zero, negatives, +Inf
			return nil, fmt.Errorf("nrrd: invalid spacing %v", spacings)
		}
	}

	var data io.Reader = br
	gzipped := false
	switch encoding {
	case "raw":
	case "gzip", "gz":
		gz, _ := gzipReaders.Get().(*gzip.Reader)
		if gz == nil {
			gz, err = gzip.NewReader(br)
		} else {
			err = gz.Reset(br)
		}
		if err != nil {
			return nil, fmt.Errorf("nrrd: opening gzip data: %w", err)
		}
		defer func() {
			br.Reset(nil) // the pooled decoder keeps br, not r's stream
			gzipReaders.Put(gz)
		}()
		// Decompression bomb bound: the decoded stream must be exactly
		// the voxel array, so never inflate more than total+1 bytes (the
		// extra byte detects an oversized payload).
		data = io.LimitReader(gz, int64(total)+1)
		gzipped = true
	default:
		return nil, fmt.Errorf("nrrd: unsupported encoding %q", encoding)
	}

	im := New(sizes[0], sizes[1], sizes[2],
		geom.Vec3{X: spacings[0], Y: spacings[1], Z: spacings[2]})
	// Decode straight into the label slice through a small fixed buffer,
	// so the voxel block is never held twice.
	var chunk [4 << 10]byte
	for off := 0; off < total; {
		n, err := io.ReadFull(data, chunk[:min(len(chunk), total-off)])
		for i, b := range chunk[:n] {
			im.data[off+i] = Label(b)
		}
		off += n
		if err == io.EOF && off > 0 {
			err = io.ErrUnexpectedEOF // short, as one whole-block read reports it
		}
		if err != nil {
			return nil, fmt.Errorf("nrrd: reading %d voxels: %w", total, err)
		}
	}
	if gzipped {
		if n, _ := data.Read(chunk[:1]); n != 0 {
			return nil, fmt.Errorf("nrrd: gzip data decodes to more than the declared %d voxels", total)
		}
	}
	return im, nil
}

// WriteNRRDFile writes the image to a file.
func WriteNRRDFile(path string, im *Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteNRRD(f, im); err != nil {
		return err
	}
	return f.Sync()
}

// ReadNRRDFile reads an image from a file.
func ReadNRRDFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadNRRD(f)
}
