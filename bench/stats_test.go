//go:build linux

package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

func TestPercentileReportsEvidence(t *testing.T) {
	v := make([]float64, 147)
	for i := range v {
		v[i] = float64(147 - i) // 147..1, unsorted on purpose
	}
	p := percentile(v, 0.90)
	// Nearest rank: ceil(0.9*147) = 133 -> the 133rd smallest; 14 beyond.
	if p.Value != 133 || p.N != 147 || p.Beyond != 14 {
		t.Errorf("p90 of 1..147 = %+v, want value 133, N 147, 14 beyond", p)
	}
	if p := percentile(v, 0.50); p.Value != 74 || p.Beyond != 73 {
		t.Errorf("p50 of 1..147 = %+v, want value 74, 73 beyond", p)
	}
	if p := percentile([]float64{7}, 0.90); p.Value != 7 || p.Beyond != 0 {
		t.Errorf("p90 of one sample = %+v", p)
	}
}

// The reference values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{30, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles(10,20,30) = %v %v %v, want 10 20 30", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestBlockValues(t *testing.T) {
	lat := make([]float64, 21)
	for i := range lat {
		lat[i] = float64(21-i) / 100 // 0.21 .. 0.01
	}
	v := blockSample{Lat: lat, Wall: 3, CPU: 4.2, Cells: 63000}.values()
	// Nearest rank: the 11th and the 19th smallest of 21.
	if !near(v.P50, 0.11) || !near(v.P90, 0.19) {
		t.Errorf("p50, p90 = %v, %v, want 0.11, 0.19", v.P50, v.P90)
	}
	if !near(v.OpsPerS, 7) || !near(v.CellsPerS, 21000) || !near(v.CPUPerOp, 0.2) {
		t.Errorf("ops/s, cells/s, cpu/op = %v, %v, %v, want 7, 21000, 0.2", v.OpsPerS, v.CellsPerS, v.CPUPerOp)
	}
}

func TestMedianOverBlocks(t *testing.T) {
	// Two of five blocks were slowed by a neighbour: slower ops, longer
	// wall, CPU inflated with it. The run's values are the quiet blocks'.
	quiet := blockSample{Lat: []float64{0.10, 0.20, 0.40}, Wall: 1, CPU: 1.2, Cells: 300}
	noisy := blockSample{Lat: []float64{0.30, 0.50, 0.90}, Wall: 2, CPU: 3, Cells: 300}
	m := medianOverBlocks([]blockSample{noisy, quiet, quiet, noisy, quiet})
	if m != quiet.values() {
		t.Errorf("median over blocks = %+v, want the quiet block's %+v", m, quiet.values())
	}
	// Each metric takes its own median: the middle block differs per column.
	a := blockSample{Lat: []float64{1}, Wall: 1, CPU: 3, Cells: 10}
	b := blockSample{Lat: []float64{2}, Wall: 4, CPU: 4, Cells: 80}
	c := blockSample{Lat: []float64{3}, Wall: 2, CPU: 9, Cells: 30}
	m = medianOverBlocks([]blockSample{a, b, c})
	if m.P50 != 2 || m.OpsPerS != 0.5 || m.CellsPerS != 15 || m.CPUPerOp != 4 {
		t.Errorf("per-column medians = %+v, want p50 2, ops/s 0.5, cells/s 15, cpu/op 4", m)
	}
}

func TestQuietEstimates(t *testing.T) {
	blocks := []blockSample{
		// A block a neighbour slowed down: slower ops, and CPU inflated
		// with the wall clock.
		{Lat: []float64{0.30, 0.50, 0.90}, Kind: []int{0, 1, 2}, Wall: 2, CPU: 3, Cells: 300},
		{Lat: []float64{0.10, 0.21, 0.40}, Kind: []int{0, 1, 2}, Wall: 1, CPU: 1.2, Cells: 330},
		{Lat: []float64{0.12, 0.20, 0.45, 0.11}, Kind: []int{0, 1, 2, 0}, Wall: 1, CPU: 1.0, Cells: 300},
	}
	q := quietEstimates(blocks, 2)
	// Fastest per kind: 0 -> 0.10 (4 ops), 1 -> 0.20 (3), 2 -> 0.40 (3).
	// Over those ten ops the 5th smallest is 0.20 and the 9th is 0.40,
	// and the mean is 0.22.
	if q.P50 != 0.20 || q.P90 != 0.40 {
		t.Errorf("p50, p90 = %v, %v, want 0.20, 0.40", q.P50, q.P90)
	}
	if !near(q.OpsPerS, 2/0.22) {
		t.Errorf("ops/s = %v, want 2 in flight / 0.22 s", q.OpsPerS)
	}
	if !near(q.CellsPerS, 2/0.22*93) {
		t.Errorf("cells/s = %v, want ops/s x 93 cells per op", q.CellsPerS)
	}
	// Cores busy per op in flight: 0.75, 0.6, 0.5 -> median 0.6.
	if !near(q.CPUPerOp, 0.6*0.22) {
		t.Errorf("cpu/op = %v, want 0.6 cores x 0.22 s", q.CPUPerOp)
	}
}

func TestWeightedPercentile(t *testing.T) {
	v, n := []float64{5, 1, 3}, []int{1, 8, 1}
	if got := weightedPercentile(v, n, 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := weightedPercentile(v, n, 0.9); got != 3 {
		t.Errorf("p90 = %v, want 3", got)
	}
	if got := weightedPercentile(v, n, 1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if !math.IsNaN(weightedPercentile(nil, nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestParseProcStat(t *testing.T) {
	// A comm with spaces and a ')' must not shift the fields.
	line := "4242 (pi2md) worker)) S 1 4242 4242 0 -1 4194560 9000 0 0 0 1234 66 0 0 20 0 9 0 555 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if !near(got, 13.00) {
		t.Errorf("cpu = %v s, want 13.00 (1234 + 66 ticks)", got)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tpi2md\nVmPeak:\t 2000000 kB\nVmHWM:\t   73728 kB\nVmRSS:\t   50000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 72 {
		t.Errorf("VmHWM = %v MiB, want 72", got)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("missing VmHWM accepted")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("unexpected unit accepted")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "serve.miss", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "edt", Start: ms(0), End: ms(10)},
		// A replayed stage lies outside the parent's interval; only its
		// duration counts.
		{ID: 3, Parent: 1, Name: "refine (replay)", Start: ms(500), End: ms(560)},
		{ID: 4, Parent: 3, Name: "grandchild", Start: ms(500), End: ms(520)},
		{ID: 5, Name: "unrelated", Start: ms(0), End: ms(1000)},
	}
	if got := selfTime(1, spans); got != ms(30) {
		t.Errorf("self time of span 1 = %v, want 30ms", got)
	}
	if got := selfTime(3, spans); got != ms(40) {
		t.Errorf("self time of span 3 = %v, want 40ms", got)
	}
	if got := selfTime(4, spans); got != ms(20) {
		t.Errorf("self time of a leaf = %v, want its duration", got)
	}
	// Children measured slower than their parent clamp to zero.
	over := []span{{ID: 1, End: ms(10)}, {ID: 2, Parent: 1, End: ms(30)}}
	if got := selfTime(1, over); got != 0 {
		t.Errorf("self time = %v, want 0", got)
	}
}
