package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument. All
// methods are safe for concurrent use and no-op on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n to the counter. Negative deltas are ignored: counters
// only move forward.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float instrument that can move in either direction.
// All methods are safe for concurrent use and no-op on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution instrument. Bucket bounds
// are set at registration and never change; observations land in the
// first bucket whose upper bound is >= the value, or in the implicit
// +Inf bucket. All methods are safe for concurrent use and no-op on a
// nil receiver.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the bucket upper bounds and the per-bucket
// (non-cumulative) counts, including the trailing +Inf bucket count.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return h.bounds, counts
}

// Registry holds named instruments. Names follow Prometheus
// conventions and may carry a label suffix (`audit_evictions_total` or
// `audit_suspicions_total{reason="agg-hull-bounds"}`); everything up to
// the first '{' is the metric family. Registration is idempotent:
// asking for an existing name returns the existing instrument, so
// independent layers can share counters without coordination. The zero
// value is not usable; call NewRegistry. All methods are safe for
// concurrent use and no-op (returning nil instruments) on a nil
// receiver.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given sorted upper bounds on first use. Later calls return
// the existing instrument and ignore bounds. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// family returns the metric family of a registered name: everything up
// to the label block, if any.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labeled splits a registered name into the family and a label block
// to splice extra labels into ("" when unlabeled, `reason="x"` when
// labeled).
func labeled(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format (version 0.0.4). Output is fully sorted — by
// family, then by instance name — so successive dumps of the same
// state are byte-identical regardless of registration order or map
// iteration. This is also the registry's canonical end-of-run dump
// format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type inst struct {
		name string
		kind string // "counter", "gauge", "histogram"
		c    *Counter
		g    *Gauge
		h    *Histogram
	}
	var all []inst
	for n, c := range r.counters {
		all = append(all, inst{name: n, kind: "counter", c: c})
	}
	for n, g := range r.gauges {
		all = append(all, inst{name: n, kind: "gauge", g: g})
	}
	for n, h := range r.histograms {
		all = append(all, inst{name: n, kind: "histogram", h: h})
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		fi, fj := family(all[i].name), family(all[j].name)
		if fi != fj {
			return fi < fj
		}
		return all[i].name < all[j].name
	})

	var b strings.Builder
	lastFam := ""
	for _, in := range all {
		fam := family(in.name)
		if fam != lastFam {
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, in.kind)
			lastFam = fam
		}
		switch in.kind {
		case "counter":
			fmt.Fprintf(&b, "%s %d\n", in.name, in.c.Value())
		case "gauge":
			fmt.Fprintf(&b, "%s %s\n", in.name, formatFloat(in.g.Value()))
		case "histogram":
			writeHistogram(&b, in.name, in.h)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	fam, labels := labeled(name)
	bounds, counts := h.Buckets()
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", fam, labels, sep, formatFloat(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", fam, labels, sep, h.Count())
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", fam, labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", fam, labels, h.Count())
}
