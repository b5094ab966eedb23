package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	cv := r.CounterVec("rejects_total", "Rejects by reason.", "reason")
	g := r.Gauge("depth", "Queue depth.")
	r.GaugeFunc("pool_size", "Pool size.", func() float64 { return 3 })
	h := r.Histogram("wait_seconds", "Wait.", []float64{0.1, 1})

	c.Add(5)
	c.Inc()
	cv.With("queue_full").Add(2)
	cv.With("deadline").Inc()
	g.Set(7)
	g.Add(-2)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 6",
		`rejects_total{reason="deadline"} 1`,
		`rejects_total{reason="queue_full"} 2`,
		"# TYPE depth gauge",
		"depth 5",
		"pool_size 3",
		"# TYPE wait_seconds histogram",
		`wait_seconds_bucket{le="0.1"} 1`,
		`wait_seconds_bucket{le="1"} 2`,
		`wait_seconds_bucket{le="+Inf"} 3`,
		"wait_seconds_sum 30.55",
		"wait_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Label values must come out sorted (deterministic scrapes).
	if strings.Index(out, `reason="deadline"`) > strings.Index(out, `reason="queue_full"`) {
		t.Error("CounterVec series are not sorted by label value")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 10, 100})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*i) / 100)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-5)
	if c.Value() != 3 {
		t.Fatalf("counter went backwards: %d", c.Value())
	}
}
