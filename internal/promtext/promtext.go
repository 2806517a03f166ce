// Package promtext is a minimal, dependency-free metrics registry that
// renders the Prometheus text exposition format (version 0.0.4). It
// implements just what the corund daemon needs — counters (plain and
// one-label vectors), gauges, and cumulative histograms — with the
// standard # HELP / # TYPE framing so any Prometheus-compatible
// scraper can consume /metrics without the client_golang dependency.
//
// All metric operations are safe for concurrent use. Registration
// (NewCounter etc.) panics on invalid or duplicate names: metric sets
// are wired once at startup, so a bad name is a programming error
// worth failing fast on.
package promtext

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// metric is one registered family; write renders its samples (without
// the HELP/TYPE header, which the registry owns).
type metric interface {
	name() string
	help() string
	typ() string
	write(w io.Writer) error
}

// Registry holds a set of metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families []metric
	byName   map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

func (r *Registry) register(m metric) {
	if !nameRe.MatchString(m.name()) {
		panic(fmt.Sprintf("promtext: invalid metric name %q", m.name()))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name()] {
		panic(fmt.Sprintf("promtext: duplicate metric %q", m.name()))
	}
	r.byName[m.name()] = true
	r.families = append(r.families, m)
}

// Write renders every family in name order.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	fams := append([]metric(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name() < fams[j].name() })
	for _, m := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			m.name(), escapeHelp(m.help()), m.name(), m.typ()); err != nil {
			return err
		}
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry in the text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Write(w)
	})
}

// family is the record every metric type embeds: the name, help and
// type the registry frames its samples with.
type family struct{ nm, hp, tp string }

func (f *family) name() string { return f.nm }
func (f *family) help() string { return f.hp }
func (f *family) typ() string  { return f.tp }

// mustIncrease panics on a negative counter delta (counters only go up
// — a decreasing "counter" corrupts every rate() over it).
func mustIncrease(name string, delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("promtext: counter %s decreased by %v", name, delta))
	}
}

// sample is one locked value: the state of a Counter or a Gauge.
type sample struct {
	family
	mu sync.Mutex
	v  float64
}

// Add shifts the value.
func (s *sample) Add(delta float64) {
	s.mu.Lock()
	s.v += delta
	s.mu.Unlock()
}

// Value returns the current value.
func (s *sample) Value() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v
}

func (s *sample) write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %s\n", s.nm, formatFloat(s.Value()))
	return err
}

// Counter is a monotonically increasing value.
type Counter struct{ sample }

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{sample{family: family{name, help, "counter"}}}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic.
func (c *Counter) Add(delta float64) {
	mustIncrease(c.nm, delta)
	c.sample.Add(delta)
}

// Gauge is a value that can go up and down.
type Gauge struct{ sample }

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{sample{family: family{name, help, "gauge"}}}
	r.register(g)
	return g
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// labelled is a family partitioned by one label: the state of a
// CounterVec or a GaugeVec.
type labelled struct {
	family
	label string
	mu    sync.Mutex
	vals  map[string]float64
}

// checkLabel returns label, panicking if it is not a valid label name.
func checkLabel(label string) string {
	if !labelRe.MatchString(label) {
		panic(fmt.Sprintf("promtext: invalid label name %q", label))
	}
	return label
}

// Add shifts the value for one label value, creating it at zero first
// if needed.
func (v *labelled) Add(labelValue string, delta float64) {
	v.mu.Lock()
	v.vals[labelValue] += delta
	v.mu.Unlock()
}

// Value returns the value for one label value.
func (v *labelled) Value(labelValue string) float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.vals[labelValue]
}

// write renders one line per label value, in label-value order; %q
// quotes and escapes the value as the exposition format wants.
func (v *labelled) write(w io.Writer) error {
	v.mu.Lock()
	vals := maps.Clone(v.vals)
	v.mu.Unlock()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", v.nm, v.label, k, formatFloat(vals[k])); err != nil {
			return err
		}
	}
	return nil
}

// CounterVec is a counter family partitioned by one label.
type CounterVec struct{ labelled }

// NewCounterVec registers a one-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{labelled{family: family{name, help, "counter"}, label: checkLabel(label), vals: map[string]float64{}}}
	r.register(v)
	return v
}

// Add increases the counter for one label value, creating it at zero
// first if needed; negative deltas panic.
func (v *CounterVec) Add(labelValue string, delta float64) {
	mustIncrease(v.nm, delta)
	v.labelled.Add(labelValue, delta)
}

// Inc adds one for the label value.
func (v *CounterVec) Inc(labelValue string) { v.Add(labelValue, 1) }

// GaugeVec is a gauge family partitioned by one label.
type GaugeVec struct{ labelled }

// NewGaugeVec registers a one-label gauge family.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{labelled{family: family{name, help, "gauge"}, label: checkLabel(label), vals: map[string]float64{}}}
	r.register(v)
	return v
}

// Set replaces the value for one label value, creating it if needed.
func (v *GaugeVec) Set(labelValue string, val float64) {
	v.mu.Lock()
	v.vals[labelValue] = val
	v.mu.Unlock()
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	family
	bounds  []float64 // ascending upper bounds, +Inf implicit
	mu      sync.Mutex
	buckets []uint64 // per-bound (non-cumulative) counts
	inf     uint64
	sum     float64
	count   uint64
}

// NewHistogram registers a histogram with the given ascending bucket
// upper bounds (+Inf is always appended).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("promtext: histogram %s buckets not ascending", name))
		}
	}
	h := &Histogram{
		family:  family{name, help, "histogram"},
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]uint64, len(bounds)),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
			return
		}
	}
	h.inf++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) write(w io.Writer) error {
	h.mu.Lock()
	bounds := h.bounds
	buckets := append([]uint64(nil), h.buckets...)
	inf, sum, count := h.inf, h.sum, h.count
	h.mu.Unlock()
	cum := uint64(0)
	for i, b := range bounds {
		cum += buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nm, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += inf
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.nm, formatFloat(sum), h.nm, count); err != nil {
		return err
	}
	return nil
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}
