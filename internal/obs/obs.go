// Package obs is the observability subsystem: dependency-free metric
// primitives — atomic counters, gauges, and fixed-bucket histograms — plus a
// Registry that renders them in Prometheus text exposition format.
//
// The design goal is zero allocation on the hot path: instruments are
// created once (registration takes a lock and may allocate), after which
// Inc/Add/Set/Observe are lock-free atomic operations on pre-sized storage.
// This is what lets the query pipeline record per-stage latencies and
// per-mode counters without disturbing the scoring kernel's ≤2-alloc
// steady state.
//
// Instruments carry an optional pre-formatted label set (`mode="CV"`), so a
// metric family (one name, one HELP/TYPE pair) can hold several series —
// the cheap subset of Prometheus labels this system needs. Registration is
// idempotent per (name, labels): asking again returns the existing
// instrument, which keeps repeated setup (many pools in one process, tests)
// safe.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are upper bounds
// in ascending order; an implicit +Inf bucket catches the rest. Observe is
// lock-free: one atomic add on the bucket, CAS on the float sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// DefLatencyBuckets spans 100µs to 10s — the range between an in-process
// exchange and a badly degraded WAN query.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind is the TYPE line a family renders.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labelled instrument within a family.
type series struct {
	labels string // pre-formatted, e.g. `mode="CV"`; "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name with its HELP/TYPE header and series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families in registration order and renders them in
// Prometheus text exposition format. All methods are safe for concurrent
// use; instrument operations after registration never touch the registry
// lock.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup finds or creates the (family, series) pair, enforcing kind
// consistency per name. The caller holds r.mu until it has given a new
// series its instrument, so every caller of one series shares one instrument.
func (r *Registry) lookup(name, help string, kind metricKind, labels string) *series {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	for _, s := range f.series {
		if s.labels == labels {
			return s
		}
	}
	s := &series{labels: labels}
	f.series = append(f.series, s)
	return s
}

// Counter returns the counter for (name, labels), creating and registering
// it on first use. labels is a pre-formatted Prometheus label body such as
// `mode="CV"`, or "" for none.
func (r *Registry) Counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given bucket upper bounds (nil selects DefLatencyBuckets).
// Bounds are fixed at creation; a second call with different bounds returns
// the original instrument.
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindHistogram, labels)
	if s.h == nil {
		if bounds == nil {
			bounds = DefLatencyBuckets
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
		s.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.h
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family/series structure; values are read atomically
	// outside the lock so a slow writer cannot stall instrument creation.
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, "", s.labels, "", float64(s.c.Value()))
			case kindGauge:
				writeSample(&b, f.name, "", s.labels, "", float64(s.g.Value()))
			case kindHistogram:
				h := s.h
				cum := uint64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					writeSample(&b, f.name, "_bucket", s.labels,
						fmt.Sprintf(`le="%s"`, formatFloat(bound)), float64(cum))
				}
				cum += h.counts[len(h.bounds)].Load()
				writeSample(&b, f.name, "_bucket", s.labels, `le="+Inf"`, float64(cum))
				writeSample(&b, f.name, "_sum", s.labels, "", h.Sum())
				writeSample(&b, f.name, "_count", s.labels, "", float64(h.Count()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one `name[suffix]{labels} value` line.
func writeSample(b *strings.Builder, name, suffix, labels, extra string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	fmt.Fprintf(b, " %s\n", formatFloat(v))
}

// formatFloat renders floats the compact way Prometheus clients expect:
// integers without exponent or trailing zeros, everything else in %g.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
