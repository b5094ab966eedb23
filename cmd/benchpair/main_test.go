package main

import (
	"math"
	"testing"
)

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		wins, losses int
		p            float64
	}{
		{10, 0, 2.0 / 1024},    // all ten pairs won
		{9, 1, 22.0 / 1024},    // 2 * (1 + 10) / 2^10
		{5, 5, 1},              // no evidence either way
		{0, 0, 1},              // every pair tied
		{1, 9, 22.0 / 1024},    // two-sided
		{3, 1, 10.0 / 16},      // 2 * (1 + 4) / 2^4
		{20, 0, 2.0 / 1048576}, // 2 / 2^20
	} {
		if got := signTest(c.wins, c.losses); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %g, want %g", c.wins, c.losses, got, c.p)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := iqr(xs); got != 2 {
		t.Errorf("IQR = %g, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of two = %g, want 1.5", got)
	}
}

func TestBetterFollowsDirection(t *testing.T) {
	lower, higher := spec{Better: "lower"}, spec{Better: "higher"}
	if better(lower, 1, 2) != 1 || better(lower, 2, 1) != -1 || better(lower, 1, 1) != 0 {
		t.Error("lower-is-better metric judged wrong")
	}
	if better(higher, 2, 1) != 1 || better(higher, 1, 2) != -1 {
		t.Error("higher-is-better metric judged wrong")
	}
}
