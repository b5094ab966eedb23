package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestEtagMatch pins the If-None-Match comparison rules.
func TestEtagMatch(t *testing.T) {
	e := EntityTag("00c0ffee00c0ffee", "vtk")
	for header, want := range map[string]bool{
		e: true, "*": true, `W/` + e: true, `"other", ` + e: true,
		`"other"`: false, EntityTag("00c0ffee00c0ffee", "off"): false, "": false,
	} {
		if got := ETagMatch(header, e); got != want {
			t.Errorf("ETagMatch(%q) = %v, want %v", header, got, want)
		}
	}
}

// TestValidImageKey: the key validator accepts exactly the SHA-256
// lowercase-hex shape, which ImageKey is: the complete digest, since the
// key doubles as the coalescing join key and the image-cache identity.
func TestValidImageKey(t *testing.T) {
	body := []byte("not really an image, but hashing does not care")
	sum := sha256.Sum256(body)
	if key := ImageKey(body); key != hex.EncodeToString(sum[:]) || !ValidImageKey(key) {
		t.Fatalf("ImageKey %q is not the valid full SHA-256 of the body", key)
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("a", 63), strings.Repeat("a", 65),
		strings.Repeat("A", 64), strings.Repeat("g", 64),
		strings.Repeat("a", 32) + " " + strings.Repeat("a", 31),
	} {
		if ValidImageKey(bad) {
			t.Errorf("ValidImageKey(%q) = true, want false", bad)
		}
	}
}

// shortReader hands its bytes out a few at a time, like a network does.
type shortReader struct{ r io.Reader }

func (s shortReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 7)]) }

// multipartBody is a spec part and an image part, and its content type.
func multipartBody(spec, image []byte) ([]byte, string) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("spec", "spec")
	fw.Write(spec)
	fw, _ = mw.CreateFormFile("image", "image")
	fw.Write(image)
	mw.Close()
	return buf.Bytes(), mw.FormDataContentType()
}

// TestReadSizedTrustsNoDeclaration: the declared length only presizes.
// Whatever it says, the body is read whole and unaltered, an honest one
// without a growth copy, and a lie cannot make the read allocate beyond
// the fixed presize bound. The cap stays the caller's MaxBytesReader,
// and both upload surfaces split the same bytes under any declaration.
func TestReadSizedTrustsNoDeclaration(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	multi, ctype := multipartBody([]byte(`{"delta":2}`), payload)
	for _, c := range []struct {
		name     string
		declared int64
		maxCap   int
	}{
		{"exact", int64(len(payload)), len(payload) + bytes.MinRead},
		{"unknown", -1, 4 * len(payload)},
		{"understated", 10, 4 * len(payload)},
		{"zero", 0, 4 * len(payload)},
		{"overstated", int64(len(payload)) + 1000, len(payload) + 1000 + bytes.MinRead},
		{"absurdly overstated", 1 << 40, maxPresize + bytes.MinRead},
	} {
		got, err := ReadSized(shortReader{bytes.NewReader(payload)}, c.declared)
		if err != nil || !bytes.Equal(got, payload) || cap(got) > c.maxCap {
			t.Errorf("%s: read %d bytes of capacity %d (%v), want the %d sent within %d", c.name, len(got), cap(got), err, len(payload), c.maxCap)
		}
		_, err = ReadSized(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(payload)), 1000), c.declared)
		if tooBig := new(http.MaxBytesError); !errors.As(err, &tooBig) {
			t.Errorf("%s, over a 1000 byte cap: error %v, want a MaxBytesError", c.name, err)
		}
		spec, image, err := SplitSpecImage("application/octet-stream", bytes.NewReader(payload), c.declared)
		if err != nil || spec != nil || !bytes.Equal(image, payload) {
			t.Errorf("%s, raw body: spec %q, %d image bytes, err %v", c.name, spec, len(image), err)
		}
		spec, image, err = SplitSpecImage(ctype, bytes.NewReader(multi), c.declared)
		if err != nil || string(spec) != `{"delta":2}` || !bytes.Equal(image, payload) {
			t.Errorf("%s, multipart: spec %q, %d image bytes, err %v", c.name, spec, len(image), err)
		}
	}
}
