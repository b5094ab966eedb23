package meshio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadVTK hardens the legacy-VTK parser against arbitrary input:
// parse or fail cleanly, and any accepted mesh must be internally
// consistent.
func FuzzReadVTK(f *testing.F) {
	var ok bytes.Buffer
	if err := WriteVTKSnapshot(&ok, tetraSnapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.String())
	f.Add("POINTS 1 double\n0 0 0\nCELLS 1 5\n4 0 0 0 0\nCELL_TYPES 1\n10\n")
	f.Add("POINTS 999999999999 double\n")
	f.Add("CELLS -5 0\n")
	f.Add("POINTS 1 double\n0 0 0\nCELLS 1 5\n4 0 0 0 7\n")
	f.Add(labelOutOfRange)

	f.Fuzz(func(t *testing.T, data string) {
		m, err := ReadVTK(strings.NewReader(data))
		if err != nil {
			return
		}
		if len(m.Verts) == 0 || len(m.Cells) == 0 {
			t.Fatal("accepted empty mesh")
		}
		for _, c := range m.Cells {
			for _, v := range c {
				if int(v) >= len(m.Verts) || v < 0 {
					t.Fatalf("accepted out-of-range vertex %d", v)
				}
			}
		}
		if m.Labels != nil && len(m.Labels) != len(m.Cells) {
			t.Fatal("label count disagrees with cells")
		}
	})
}
