// Package obs is the service's observability core: atomic counters,
// gauges, fixed-bucket latency histograms with a Prometheus
// text-format exporter, and request-scoped span traces carried via
// context.Context. It depends only on the standard library and is
// safe for concurrent use; the record paths (Counter.Add,
// Gauge.Set, Histogram.Observe) do not allocate, so instruments can
// sit next to the simulator hot loop without disturbing the
// zero-alloc pin.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets spans 500µs..60s — wide enough for a cache hit
// (sub-millisecond) and a cold calibration (tens of seconds) on the
// same instrument.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Kind discriminates metric families for the TYPE exposition line.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0; negative deltas
// are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta (CAS loop; lock-free and alloc-free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative-at-export
// buckets and tracks their sum. Observe is lock-free and alloc-free.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64
	total   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤ ~20) and a scan over a
	// resident slice is cheaper than a branchy binary search.
	idx := -1
	for i, ub := range h.bounds {
		if v <= ub {
			idx = i
			break
		}
	}
	if idx < 0 {
		h.inf.Add(1)
	} else {
		h.counts[idx].Add(1)
	}
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the owning bucket, the same way Prometheus' histogram_quantile
// does. Values in the +Inf bucket clamp to the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum int64
	for i, ub := range h.bounds {
		n := h.counts[i].Load()
		if float64(cum+n) >= target && n > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (target - float64(cum)) / float64(n)
			return lower + (ub-lower)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// child is one labeled instance inside a family: exactly one of the
// value fields is live, matching the family kind.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	fn          func() float64 // GaugeFunc / CounterFunc callback
	hist        *Histogram
}

// family groups all children sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
	order    []string
}

func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = newHistogram(f.bounds)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Construction is get-or-create: asking for an
// existing name with a matching shape returns the same instrument, so
// wiring the same registry through two layers is safe.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// NewCounter registers (or fetches) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).get(nil).counter
}

// NewGauge registers (or fetches) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).get(nil).gauge
}

// NewHistogram registers (or fetches) an unlabeled histogram.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, KindHistogram, nil, bounds).get(nil).hist
}

// NewGaugeFunc registers a gauge whose value is sampled at scrape
// time — the natural fit for occupancy numbers another subsystem
// already tracks (cache entries, resident submissions, goroutines).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	c := r.family(name, help, KindGauge, nil, nil).get(nil)
	c.gauge, c.fn = nil, fn
}

// NewCounterFunc registers a counter sampled at scrape time, for
// monotone totals owned elsewhere (cache hits, engine block counts).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	c := r.family(name, help, KindCounter, nil, nil).get(nil)
	c.counter, c.fn = nil, fn
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers (or fetches) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).counter }

// GaugeFuncVec is a family of scrape-time-sampled gauges keyed by
// label values (e.g. per-worker up/ready flags on the router).
type GaugeFuncVec struct{ f *family }

// NewGaugeFuncVec registers (or fetches) a labeled gauge-func family.
func (r *Registry) NewGaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	return &GaugeFuncVec{r.family(name, help, KindGauge, labels, nil)}
}

// Register binds fn to the given label values.
func (v *GaugeFuncVec) Register(fn func() float64, values ...string) {
	c := v.f.get(values)
	c.gauge, c.fn = nil, fn
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// NewHistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, KindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }
