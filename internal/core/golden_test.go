package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/meshio"
)

// goldenMeshes pins the single-worker output on the three atlas
// phantoms at the daemon workloads' scale (48): the element count and
// the SHA-256 of the legacy-VTK encoding. The values were recorded on
// the commit before the kernel's bootstrap-by-copy and map-free scratch
// landed (c28b5c6), so the test fails on any kernel change that alters
// which handles an operation draws, the order it visits cells in, or a
// single coordinate bit.
var goldenMeshes = []struct {
	name     string
	image    func() *img.Image
	elements int
	vtkSHA   string
}{
	{"knee", func() *img.Image { return img.KneePhantom(48, 48, 48) },
		4600, "79e94b4490376d9e26044fe28a5509f773f07ea3366b65144fe15884a7234f9a"},
	{"abdominal", func() *img.Image { return img.AbdominalPhantom(48, 48, 32) },
		3048, "204ece1e40adaf980b56340be7aeb332b8f1f0f76c71781f5b61b4cf4f4d7337"},
	{"headneck", func() *img.Image { return img.HeadNeckPhantom(48, 48, 48) },
		3684, "187b59dff6175c2eaec6ba0674b620b26ebf0c03ad5ba04323f13594235740ed"},
}

func vtkSHA(t *testing.T, res *core.Result, im *img.Image) string {
	t.Helper()
	h := sha256.New()
	if err := meshio.WriteVTKSnapshot(h, res.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSingleWorkerOutput runs each phantom cold then warm on one
// session (the warm run restores the bootstrapped mesh instead of
// rebuilding it) and requires both to reproduce the pinned mesh byte
// for byte.
func TestGoldenSingleWorkerOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were recorded on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	for _, g := range goldenMeshes {
		s, err := core.NewSession(core.Config{Workers: 1, LivelockTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		im := g.image()
		for _, pass := range []string{"cold", "warm"} {
			res, err := s.Run(context.Background(), im)
			if err != nil {
				t.Fatalf("%s %s: %v", g.name, pass, err)
			}
			sum := vtkSHA(t, res, im)
			if res.Elements() != g.elements || sum != g.vtkSHA {
				t.Errorf("%s %s: %d elements, VTK sha256 %s; golden %d, %s",
					g.name, pass, res.Elements(), sum, g.elements, g.vtkSHA)
			}
		}
		s.Close()
	}
}
