// Package metrics is the dependency-free metrics registry both serving
// tiers expose on /metrics: counters, gauges, histograms and labelled
// families of the first two, with Prometheus text exposition. It
// imports nothing from this module, so the router links it without
// linking the mesher.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates float64 observations into cumulative buckets
// (Prometheus histogram semantics: bucket le="x" counts observations
// <= x, plus an implicit +Inf bucket, a sum and a count).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds, +Inf excluded
	counts []int64   // len(bounds)+1; last is the +Inf overflow
	sum    float64
	count  int64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i]++
	h.sum += x
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket
// counts: the upper bound of the first bucket whose cumulative count
// reaches q of the total. Observations in the +Inf overflow bucket
// clamp to the largest finite bound. Returns 0 with no observations.
// The estimate is bucket-granular — good enough for retry hints, which
// clamp the result anyway, and the brownout controller's wait estimate.
func (h *Histogram) Quantile(q float64) float64 {
	if q <= 0 || q > 1 {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		if cum >= target {
			return b
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is a consistent copy of a histogram's state:
// per-bucket (non-cumulative) counts aligned with Bounds, plus the
// implicit +Inf overflow bucket as the final Counts entry.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot copies the histogram's buckets, sum and count atomically —
// the benchmark harness embeds lease-occupancy histograms in its
// report this way.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// Vec is a family of counters or gauges split by its labels' values
// (requests_total{code="200"}, proxied_jobs_total{backend="a",
// outcome="ok"}). Unknown value tuples materialize their series on
// first use.
type Vec[T any, P interface {
	*T
	Value() int64
}] struct {
	labels []string
	mu     sync.Mutex
	vals   map[string]P // keyed by the label values joined with vecSep
}

// CounterVec and GaugeVec are the two families the registry hands out.
type (
	CounterVec = Vec[Counter, *Counter]
	GaugeVec   = Vec[Gauge, *Gauge]
)

// vecSep joins a series' label values into its map key. NUL sorts below
// every byte a label value holds, so sorting the keys sorts the series
// by first label, then second.
const vecSep = "\x00"

func (v *Vec[T, P]) key(values []string) string {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %v", len(values), v.labels))
	}
	return strings.Join(values, vecSep)
}

// With returns the series for the given label values, one per label.
func (v *Vec[T, P]) With(values ...string) P {
	k := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.vals[k]
	if !ok {
		s = new(T)
		v.vals[k] = s
	}
	return s
}

// Value returns the series' value for the given label values (0 if the
// series does not exist yet).
func (v *Vec[T, P]) Value(values ...string) int64 {
	k := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok := v.vals[k]; ok {
		return s.Value()
	}
	return 0
}

// Total sums the family across all its series.
func (v *Vec[T, P]) Total() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var t int64
	for _, s := range v.vals {
		t += s.Value()
	}
	return t
}

// write appends the family's sample lines, sorted by label values.
func (v *Vec[T, P]) write(b *strings.Builder, name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.vals))
	for k := range v.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(name)
		for i, val := range strings.Split(k, vecSep) {
			sep := ","
			if i == 0 {
				sep = "{"
			}
			fmt.Fprintf(b, "%s%s=%q", sep, v.labels[i], escapeLabel(val))
		}
		fmt.Fprintf(b, "} %d\n", v.vals[k].Value())
	}
}

// metric is one registered metric with its exposition metadata.
type metric struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	counter     *Counter
	gauge       *Gauge
	gaugeFunc   func() float64
	counterFunc func() float64
	histogram   *Histogram
	vec         interface {
		write(b *strings.Builder, name string)
	}
}

// Registry is an ordered collection of metrics with Prometheus text
// exposition. The zero value is not usable; use NewRegistry.
// Registration is meant for setup time; observation methods on the
// returned metrics are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("metrics: metric %q registered twice", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, typ: "counter", counter: c})
	return c
}

// CounterVec registers and returns a counter family split by labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{labels: labels, vals: make(map[string]*Counter)}
	r.register(&metric{name: name, help: help, typ: "counter", vec: cv})
	return cv
}

// GaugeVec registers and returns a gauge family split by labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{labels: labels, vals: make(map[string]*Gauge)}
	r.register(&metric{name: name, help: help, typ: "gauge", vec: gv})
	return gv
}

// Gauge registers and returns a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from f at
// exposition time. f must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", gaugeFunc: f})
}

// CounterFunc registers a counter whose value is read from f at
// exposition time — for monotone counters owned by another subsystem
// (e.g. the session pool's reuse counters). f must be safe to call
// concurrently and must never decrease.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(&metric{name: name, help: help, typ: "counter", counterFunc: f})
}

// Histogram registers and returns a histogram over the given sorted
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
	r.register(&metric{name: name, help: help, typ: "histogram", histogram: h})
	return h
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// WritePrometheus writes every registered metric in the Prometheus
// text exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		switch {
		case m.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Value())
		case m.vec != nil:
			m.vec.write(&b, m.name)
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.gauge.Value())
		case m.gaugeFunc != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.gaugeFunc()))
		case m.counterFunc != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.counterFunc()))
		case m.histogram != nil:
			h := m.histogram
			h.mu.Lock()
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatFloat(bound), cum)
			}
			cum += h.counts[len(h.bounds)]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatFloat(h.sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, h.count)
			h.mu.Unlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
