package quality

import (
	"fmt"
	"math"
	"strings"
)

// Histogram accumulates a bounded scalar distribution (dihedral
// angles, radius-edge ratios, edge lengths) for mesh-quality reports.
type Histogram struct {
	Lo, Hi float64
	Bins   []int

	Count     int
	Min, Max  float64
	sum       float64
	underflow int
	overflow  int
}

// NewHistogram covers [lo, hi) with n bins.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("quality: invalid histogram range")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n),
		Min: math.Inf(1), Max: math.Inf(-1)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.Count++
	h.sum += x
	if x < h.Min {
		h.Min = x
	}
	if x > h.Max {
		h.Max = x
	}
	switch {
	case x < h.Lo:
		h.underflow++
	case x >= h.Hi:
		h.overflow++
	default:
		i := int(float64(len(h.Bins)) * (x - h.Lo) / (h.Hi - h.Lo))
		h.Bins[i]++
	}
}

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.Count)
}

// Fraction returns the share of samples in [a, b), counted by bins
// (approximate at bin resolution).
func (h *Histogram) Fraction(a, b float64) float64 {
	if h.Count == 0 {
		return 0
	}
	n := 0
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	for i, c := range h.Bins {
		lo := h.Lo + float64(i)*w
		if lo >= a && lo+w <= b {
			n += c
		}
	}
	return float64(n) / float64(h.Count)
}

// String renders a compact ASCII bar chart.
func (h *Histogram) String() string {
	var b strings.Builder
	maxC := 1
	for _, c := range h.Bins {
		if c > maxC {
			maxC = c
		}
	}
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	for i, c := range h.Bins {
		bar := strings.Repeat("#", 50*c/maxC)
		fmt.Fprintf(&b, "%8.2f–%-8.2f %7d %s\n", h.Lo+float64(i)*w, h.Lo+float64(i+1)*w, c, bar)
	}
	fmt.Fprintf(&b, "n=%d min=%.3f mean=%.3f max=%.3f (under=%d over=%d)\n",
		h.Count, h.Min, h.Mean(), h.Max, h.underflow, h.overflow)
	return b.String()
}
