package quality_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/quality"
)

func TestHistogramBasics(t *testing.T) {
	h := quality.NewHistogram(0, 10, 10)
	for _, x := range []float64{0.5, 1.5, 1.6, 9.9, -1, 10, 15, math.NaN()} {
		h.Add(x)
	}
	if h.Count != 7 { // NaN dropped
		t.Errorf("Count = %d", h.Count)
	}
	if h.Bins[0] != 1 || h.Bins[1] != 2 || h.Bins[9] != 1 {
		t.Errorf("bins = %v", h.Bins)
	}
	if under, over := h.UnderOverForTest(); under != 1 || over != 2 {
		t.Errorf("under=%d over=%d", under, over)
	}
	if h.Min != -1 || h.Max != 15 {
		t.Errorf("min=%v max=%v", h.Min, h.Max)
	}
	if s := h.String(); !strings.Contains(s, "n=7") {
		t.Error("String missing count")
	}
}

func TestHistogramFraction(t *testing.T) {
	h := quality.NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	if f := h.Fraction(0, 5); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("Fraction(0,5) = %v", f)
	}
	if f := h.Fraction(0, 10); f != 1 {
		t.Errorf("Fraction(0,10) = %v", f)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad range")
		}
	}()
	quality.NewHistogram(5, 5, 10)
}
