package serve

import (
	"bytes"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
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

// TestBodySpecPrecedence: a multipart "spec" part replaces the query
// string wholesale — a query knob absent from the body spec does NOT
// leak through.
func TestBodySpecPrecedence(t *testing.T) {
	srv, _ := newTestServer(t, Config{PoolSize: 1})
	body, ctype := multipartBody(t, map[string][]byte{
		"spec":  []byte(`{"delta": 2.5}`),
		"image": []byte("fake-image"),
	})
	r := httptest.NewRequest(http.MethodPost,
		"/v1/mesh?delta=9&max_elements=777&format=off", bytes.NewReader(body))
	r.Header.Set("Content-Type", ctype)
	w := httptest.NewRecorder()
	spec, image, ok := srv.readMeshRequest(w, r)
	if !ok {
		t.Fatalf("readMeshRequest failed: %s", w.Body.String())
	}
	if string(image) != "fake-image" {
		t.Errorf("image part = %q", image)
	}
	if spec.Delta != 2.5 {
		t.Errorf("delta = %g, want the body's 2.5", spec.Delta)
	}
	if spec.MaxElements != 0 {
		t.Errorf("max_elements = %d leaked from the query string, want 0", spec.MaxElements)
	}
	if spec.Format != "vtk" {
		t.Errorf("format = %q leaked from the query string, want the default", spec.Format)
	}

	// Spec-less multipart: the query string applies as always.
	body, ctype = multipartBody(t, map[string][]byte{"image": []byte("fake-image")})
	r = httptest.NewRequest(http.MethodPost, "/v1/mesh?delta=9", bytes.NewReader(body))
	r.Header.Set("Content-Type", ctype)
	w = httptest.NewRecorder()
	spec, _, ok = srv.readMeshRequest(w, r)
	if !ok {
		t.Fatalf("spec-less multipart rejected: %s", w.Body.String())
	}
	if spec.Delta != 9 {
		t.Errorf("delta = %g, want the query's 9", spec.Delta)
	}
}

// TestQuerySurfaceByteIdentical: the historical raw-body-plus-query
// surface returns byte-identical meshes before and after the spec
// redesign — asserted by meshing the same image through the query
// surface and the equivalent JSON body spec and comparing the VTK
// bytes (both resolve to the same variant, so the second request is
// served from the same cached snapshot).
func TestQuerySurfaceByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	client := ts.Client()
	image := nrrdBody(t, 8)

	viaQuery, _ := meshOK(t, client, ts.URL, "?delta=2.5", image)
	if !bytes.HasPrefix(viaQuery, []byte("# vtk DataFile Version 3.0")) {
		t.Fatalf("query surface no longer returns legacy VTK: %q", viaQuery[:40])
	}

	body, ctype := multipartBody(t, map[string][]byte{
		"spec":  []byte(`{"delta": 2.5}`),
		"image": image,
	})
	viaBody := send(t, client, "POST", ts.URL+"/v1/mesh", ctype, body)
	if viaBody.StatusCode != http.StatusOK {
		t.Fatalf("body-spec request: %d: %s", viaBody.StatusCode, viaBody.body)
	}
	if !bytes.Equal(viaQuery, viaBody.body) {
		t.Error("query-surface and body-spec responses differ for identical knobs")
	}
}
