// Package obs is the platform's dependency-free observability layer:
// lock-free counters, gauges and fixed-bucket histograms collected in a
// registry with bounded label cardinality, per-request trace spans keyed by
// a propagated request ID, and Prometheus-text-format exposition.
//
// The paper's whole evaluation (§3, Figs. 2–4) is about measuring the query
// path — rows scanned per region, coprocessor time, merge cost. This
// package turns those bespoke experiment counters into continuous live
// series every layer reports into: kvstore scans, the scatter-gather pool,
// the query engine's coprocessors and merges, and the HTTP handlers. The
// series are the telemetry substrate any future adaptive sharding or
// caching needs as input.
//
// Hot-path discipline: metric handles are resolved once (package init or
// handler construction) and are plain atomics afterwards; scans batch their
// counts and report once per scan, never per row. Label values must come
// from fixed enums — never from user input such as keywords or user ids —
// which the test suite enforces statically (TestStaticContracts) and the
// registry enforces dynamically with a hard series cap per family.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable
// but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Label is one metric dimension. Values must come from a fixed enum (route
// names, status classes, schema names) — never from user input — so series
// cardinality stays bounded; TestStaticContracts rejects non-constant values.
type Label struct {
	Key   string
	Value string
}

// L constructs a Label. TestStaticContracts audits every call: both
// arguments must be compile-time constants.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricType discriminates a family's kind.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// MaxSeriesPerFamily caps the number of label combinations one metric name
// may hold. Exceeding it panics: unbounded cardinality is a programming
// error (a user-derived label value), not an operational condition.
const MaxSeriesPerFamily = 256

// series is one labelled instance of a family.
type series struct {
	labels []Label // sorted by key
	key    string  // canonical encoding of labels
	metric interface{}
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	bounds []float64 // histogram bucket upper bounds
	series []*series
}

// Registry holds metric families. Registration (Counter/Gauge/Histogram)
// takes a mutex and is meant for init-time handle resolution; the returned
// handles are lock-free. The zero value is not usable; use NewRegistry or
// the process-wide Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry every subsystem reports
// into; /metrics serves it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// labelKey canonicalizes a label set (sorted by key). Labels are sorted in
// place; callers pass freshly built slices.
func labelKey(labels []Label) string {
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// validName reports whether s is a legal metric or label identifier.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// getOrCreate resolves (name, labels) inside a family of the given type,
// creating family and series as needed. make builds a fresh metric value.
func (r *Registry) getOrCreate(name, help string, typ metricType, bounds []float64, labels []Label, mk func() interface{}) interface{} {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: metric %s: invalid label key %q", name, l.Key))
		}
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bounds: bounds}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.key == key {
			return s.metric
		}
	}
	if len(f.series) >= MaxSeriesPerFamily {
		panic(fmt.Sprintf("obs: metric %s exceeds %d series — label values must come from a fixed enum, never from user input", name, MaxSeriesPerFamily))
	}
	s := &series{labels: labels, key: key, metric: mk()}
	f.series = append(f.series, s)
	return s.metric
}

// Counter returns the registered counter for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getOrCreate(name, help, typeCounter, nil, labels, func() interface{} { return &Counter{} }).(*Counter)
}

// Gauge returns the registered gauge for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getOrCreate(name, help, typeGauge, nil, labels, func() interface{} { return &Gauge{} }).(*Gauge)
}

// Histogram returns the registered histogram for (name, labels), creating
// it on first use with the given bucket upper bounds (ascending; +Inf is
// implicit). Bounds are fixed at family creation; later callers inherit the
// first registration's buckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: metric %s: histogram bounds not ascending", name))
		}
	}
	r.mu.Lock()
	if f := r.families[name]; f != nil && f.typ == typeHistogram {
		bounds = f.bounds // family already fixed its buckets
	}
	r.mu.Unlock()
	return r.getOrCreate(name, help, typeHistogram, bounds, labels, func() interface{} { return newHistogram(bounds) }).(*Histogram)
}
