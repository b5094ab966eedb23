package experiments

import (
	"strings"
	"testing"
)

// tinyParams keeps experiment tests fast.
func tinyParams() Params {
	return Params{
		ImageScale: 32,
		Threads:    []int{1, 2},
	}
}

func TestPhantomBuilders(t *testing.T) {
	if im := Abdominal(24); im.NX != 24 || im.NZ != 16 {
		t.Error("Abdominal dims")
	}
	if im := Knee(24); im.NZ != 24 {
		t.Error("Knee dims")
	}
	if im := HeadNeck(24); im.NY != 24 {
		t.Error("HeadNeck dims")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	// 4 CMs x 2 thread counts.
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Livelocked {
			continue
		}
		if r.Time <= 0 || r.Elements == 0 {
			t.Errorf("%s/%d: empty result", r.CM, r.Threads)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s/%d: speedup %v", r.CM, r.Threads, r.Speedup)
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"Table 1", "rollbacks", "speedup", "livelock", "local"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q", want)
		}
	}
}

func TestFig5(t *testing.T) {
	rows, err := Fig5(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TimeRWS <= 0 || r.TimeHWS <= 0 {
			t.Error("missing timings")
		}
	}
	out := FormatFig5(rows)
	for _, want := range []string{"Figure 5a", "Figure 5b", "Figure 5c", "inter-blade"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig5 missing %q", want)
		}
	}
}

func TestTable4(t *testing.T) {
	rows, err := Table4(tinyParams(), "abdominal")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup != 1 || rows[0].Efficiency != 1 {
		t.Error("baseline row not normalized")
	}
	// Weak scaling: more threads => smaller delta => more elements.
	if rows[1].Elements <= rows[0].Elements {
		t.Errorf("problem size did not grow: %d -> %d", rows[0].Elements, rows[1].Elements)
	}
	if !strings.Contains(FormatTable4(rows, "x"), "Efficiency") {
		t.Error("format missing Efficiency")
	}
	if _, err := Table4(tinyParams(), "bogus"); err == nil {
		t.Error("bogus input accepted")
	}
}

func TestTable5(t *testing.T) {
	rows, err := Table5(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 || r.Elements == 0 {
			t.Errorf("row %+v", r)
		}
	}
	if !strings.Contains(FormatTable5(rows), "Table 5") {
		t.Error("format missing title")
	}
}

func TestFig6(t *testing.T) {
	pts, err := Fig6(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	// The run is short; the sampler may catch only a few points, but
	// the curve must be monotone in both coordinates.
	for i := 1; i < len(pts); i++ {
		if pts[i].Wall < pts[i-1].Wall {
			t.Error("wall time not monotone")
		}
		if pts[i].OverheadNs < pts[i-1].OverheadNs {
			t.Error("cumulative overhead decreased")
		}
	}
	if !strings.Contains(FormatFig6Threads(pts, 2), "Figure 6") {
		t.Error("format missing title")
	}
}

func TestTable6(t *testing.T) {
	p := tinyParams()
	p.ImageScale = 40
	rows, err := Table6(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 inputs x 3 meshers
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Tetrahedra == 0 || r.TetraPerSecond <= 0 {
			t.Errorf("%s/%s: empty", r.Input, r.Mesher)
		}
		if r.MaxRadiusEdge <= 0 || r.MaxRadiusEdge > 2.5 {
			t.Errorf("%s/%s: radius-edge %v", r.Input, r.Mesher, r.MaxRadiusEdge)
		}
	}
	// Size calibration: the CGAL stand-in's mesh is within 2x of PI2M's.
	for i := 0; i < len(rows); i += 3 {
		ratio := float64(rows[i+1].Tetrahedra) / float64(rows[i].Tetrahedra)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: size calibration failed (ratio %.2f)", rows[i].Input, ratio)
		}
	}
	out := FormatTable6(rows)
	for _, want := range []string{"Table 6", "PI2M", "CGAL", "TetGen", "Hausdorff"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable6 missing %q", want)
		}
	}
}
