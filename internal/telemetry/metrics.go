// Package telemetry is the repo's observability layer: a small,
// dependency-free metrics registry — atomic counters, gauges and
// fixed-bucket duration histograms — rendered in the Prometheus text
// exposition format, plus the log/slog construction shared by the CLI
// binaries and the benchmark service (log.go).
//
// The registry is built for instrumenting the simulator's hot paths:
// Counter.Inc, Gauge.Set and Histogram.Observe are single atomic
// operations with zero steady-state allocations, so the sim package's
// AllocsPerRun gates and the sweep engine's cells/sec stay unaffected
// by instrumentation. Scrape-time cost (sorting, formatting) is paid in
// WritePrometheus, never on the increment side. Func metrics
// (CounterFunc, GaugeFunc) read a value at scrape time, which is how
// package-level counters of instrumented subsystems (internal/sim,
// internal/futex, internal/sweep) surface without those packages
// importing telemetry.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// usable, but registry-created counters (Registry.Counter) are what
// WritePrometheus renders.
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

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket duration histogram. Bucket bounds are set
// at registration and never change, so Observe is a linear scan over a
// handful of bounds plus two atomic adds — no locks, no allocations.
// Durations render in seconds, the Prometheus convention.
type Histogram struct {
	bounds []time.Duration // upper bounds, ascending; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// DefBuckets are the default request-latency bounds: 1ms to 10s,
// roughly geometric — wide enough for both a cache-hit GET and a
// full quick-grid simulation.
var DefBuckets = []time.Duration{
	time.Millisecond, 5 * time.Millisecond, 25 * time.Millisecond,
	100 * time.Millisecond, 500 * time.Millisecond,
	2500 * time.Millisecond, 10 * time.Second,
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// metricKind is the Prometheus family type.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one sample line (or one histogram) of a family.
type series struct {
	labels string // pre-rendered `key="value",…` (no braces), "" for none
	braced string // labels in braces, "" for none
	// buckets holds a histogram's bucket label sets, `{labels,le="…"}`,
	// rendered once at registration; +Inf is last.
	buckets []string
	c       *Counter
	g       *Gauge
	h       *Histogram
	f       func() float64 // scrape-time reader for func metrics
}

// family is one metric name with its help, type and series.
type family struct {
	name string
	help string
	kind metricKind
	ser  []*series
}

// Registry holds metric families and renders them as Prometheus text.
// Create one per scrape surface (e.g. per server); registration is
// mutex-guarded, reads on the increment side are lock-free.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// register adds a series under (name, labels), creating the family on
// first use. Conflicting re-registration is a programming error and
// panics, like the experiment registry does.
func (r *Registry) register(name, help string, kind metricKind, labels string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	for _, prev := range f.ser {
		if prev.labels == labels {
			panic(fmt.Sprintf("telemetry: duplicate series %s{%s}", name, labels))
		}
	}
	s.labels, s.braced = labels, braceOpt(labels)
	f.ser = append(f.ser, s)
}

// Counter registers and returns a counter. Counter names end in _total
// by Prometheus convention.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, "", &series{c: c})
	return c
}

// CounterFunc registers a counter whose value is read at scrape time —
// the bridge for package-level totals the instrumented subsystem owns.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(name, help, kindCounter, "", &series{f: f})
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, "", &series{g: g})
	return g
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, kindGauge, "", &series{f: f})
}

// LabeledCounter registers a counter as one labeled series of a shared
// family name — e.g. fleet_cells_total{worker="w1"} — like Histogram
// already allows. labels is a pre-rendered set built with Label; the
// same (name, labels) pair registered twice panics, so callers that
// discover label values at runtime (one series per fleet worker) must
// memoize the returned counter per value.
func (r *Registry) LabeledCounter(name, help, labels string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labels, &series{c: c})
	return c
}

// Histogram registers and returns a duration histogram with the given
// bucket bounds (ascending; nil means DefBuckets). labels is an
// optional pre-rendered label set built with Label — one histogram per
// label value, all under one family name.
func (r *Registry) Histogram(name, help, labels string, bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	s := &series{h: h, buckets: make([]string, len(bounds)+1)}
	for i := range s.buckets {
		le := "+Inf"
		if i < len(bounds) {
			le = fnum(bounds[i].Seconds())
		}
		s.buckets[i] = "{" + joinLabels(labels, Label("le", le)) + "}"
	}
	r.register(name, help, kindHistogram, labels, s)
	return h
}

// labelEscaper escapes a label value per the exposition format. It is
// built once and shared; a Replacer is safe for concurrent use.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one label pair for the labels argument of Histogram,
// escaping the value per the exposition format. Join multiple pairs
// with commas.
func Label(key, value string) string {
	return key + `="` + labelEscaper.Replace(value) + `"`
}

// fnum renders a float the way Prometheus clients do: integral values
// without an exponent or trailing zeros.
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in registration order, in the
// text exposition format (version 0.0.4). The output is deterministic
// for a fixed registration sequence.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.ser {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.braced, s.c.Value())
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.braced, s.g.Value())
		return err
	case s.f != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.braced, fnum(s.f()))
		return err
	case s.h != nil:
		return writeHistogram(w, f.name, s)
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative _bucket
// lines (le in seconds), then _sum (seconds) and _count.
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	var cum uint64
	for i, le := range s.buckets {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.braced, fnum(h.Sum().Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.braced, h.Count())
	return err
}

func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

func braceOpt(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Handler returns an HTTP handler serving the registry as a Prometheus
// scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
