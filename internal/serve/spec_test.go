package serve

import (
	"bytes"
	"mime/multipart"
	"testing"
)

// multipartBody builds a multipart/form-data request body with the
// given parts; the returned content type carries the boundary.
func multipartBody(t *testing.T, parts map[string][]byte) ([]byte, string) {
	t.Helper()
	var b bytes.Buffer
	mw := multipart.NewWriter(&b)
	// Deterministic order: image last, like a streaming client would.
	order := []string{"spec", "image"}
	for _, name := range order {
		data, ok := parts[name]
		if !ok {
			continue
		}
		fw, err := mw.CreateFormFile(name, name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(data)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), mw.FormDataContentType()
}
