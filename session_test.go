package pi2m_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	pi2m "repro"
)

// TestSessionFacade exercises the functional-option surface: option
// validation, warm reuse, the io-based NRRD roundtrip, and Close.
func TestSessionFacade(t *testing.T) {
	for name, bad := range map[string]pi2m.Option{
		"contention manager bogus": pi2m.WithContentionManager("bogus"),
		"delta -1":                 pi2m.WithDelta(-1),
		"delta NaN":                pi2m.WithDelta(math.NaN()),
		"delta +Inf":               pi2m.WithDelta(math.Inf(1)),
		"radius-edge NaN":          pi2m.WithMaxRadiusEdge(math.NaN()),
		"radius-edge +Inf":         pi2m.WithMaxRadiusEdge(math.Inf(1)),
		"facet angle NaN":          pi2m.WithMinFacetAngle(math.NaN()),
		"facet angle +Inf":         pi2m.WithMinFacetAngle(math.Inf(1)),
		"facet angle -1":           pi2m.WithMinFacetAngle(-1),
	} {
		if _, err := pi2m.NewSession(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	s, err := pi2m.NewSession(
		pi2m.WithThreads(2),
		pi2m.WithBalancer("hws"),
		pi2m.WithContentionManager("local"),
		pi2m.WithMaxRadiusEdge(2),
		pi2m.WithMinFacetAngle(30),
	)
	if err != nil {
		t.Fatal(err)
	}
	image := pi2m.TorusPhantom(24)
	res1, err := s.Run(context.Background(), image)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Elements() == 0 {
		t.Fatal("empty mesh")
	}
	if _, err := s.Run(context.Background(), image); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Runs != 2 || st.WarmRuns != 1 || st.WarmEDTHits != 1 {
		t.Fatalf("reuse stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), image); err == nil {
		t.Fatal("Run after Close succeeded")
	}

	// io.Reader/io.Writer NRRD roundtrip through the facade.
	var buf bytes.Buffer
	if err := pi2m.WriteNRRD(&buf, image); err != nil {
		t.Fatal(err)
	}
	back, err := pi2m.ReadNRRD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVoxels() != image.NumVoxels() {
		t.Fatal("NRRD roundtrip lost voxels")
	}
}

// TestSessionVTKRawRoundtrip drives the io-based VTK read/write pair
// through the facade: a mesh read back writes the same bytes again.
func TestSessionVTKRawRoundtrip(t *testing.T) {
	res, err := pi2m.Run(pi2m.Config{
		Image:   pi2m.SpherePhantom(16),
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pi2m.WriteVTKSnapshot(&buf, res.Snapshot()); err != nil {
		t.Fatal(err)
	}
	written := bytes.Clone(buf.Bytes())
	raw, err := pi2m.ReadVTK(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Cells) != res.Elements() {
		t.Fatalf("VTK roundtrip: %d cells in, %d out", res.Elements(), len(raw.Cells))
	}
	var buf2 bytes.Buffer
	if err := pi2m.WriteVTKSnapshot(&buf2, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), written) {
		t.Fatal("VTK roundtrip changed the mesh")
	}
}

// TestSessionBusyExport verifies the facade exposes the core's
// busy-rejection sentinel under the same identity.
func TestSessionBusyExport(t *testing.T) {
	if pi2m.ErrSessionBusy == nil {
		t.Fatal("pi2m.ErrSessionBusy is nil")
	}
	if pi2m.ErrSessionBusy.Error() == "" {
		t.Fatal("pi2m.ErrSessionBusy has no message")
	}
}
