package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the series types a Registry holds.
type Kind uint8

// Series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind for renders.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is one monotonic series of a Registry.
type Counter struct{ v uint64 }

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Set overwrites the counter (scrapers copy cumulative totals in).
func (c *Counter) Set(n uint64) { c.v = n }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is one instantaneous-value series of a Registry.
type Gauge struct{ v float64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return g.v }

// seriesKey identifies one series: Labels is comparable, so the pair
// works directly as a map key.
type seriesKey struct {
	name   string
	labels Labels
}

// series is one named, labeled instrument.
type series struct {
	key     seriesKey
	kind    Kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry is a collection of labeled series. Lookups create series on
// first use; asking for an existing (name, labels) pair under a
// different kind panics — that is a wiring error, not load-time state.
type Registry struct {
	byKey map[seriesKey]*series
	order []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[seriesKey]*series)}
}

// lookup finds or creates a series of the given kind.
func (r *Registry) lookup(name string, labels Labels, kind Kind) *series {
	key := seriesKey{name, labels}
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %s%s registered as %s, requested as %s",
				name, labels, s.kind, kind))
		}
		return s
	}
	s := &series{key: key, kind: kind}
	switch kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	default:
		s.hist = NewHistogram()
	}
	r.byKey[key] = s
	r.order = append(r.order, s)
	return s
}

// Counter returns the named labeled counter, creating it at zero.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.lookup(name, labels, KindCounter).counter
}

// Gauge returns the named labeled gauge, creating it at zero.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.lookup(name, labels, KindGauge).gauge
}

// Histogram returns the named labeled histogram, creating it empty.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	return r.lookup(name, labels, KindHistogram).hist
}

// AddHistogram folds an externally-maintained histogram into the named
// labeled series bucket-wise, so scrapers can export distributions
// subsystems keep privately (e.g. a host's frames-per-batch histogram).
func (r *Registry) AddHistogram(name string, labels Labels, h *Histogram) {
	if h == nil {
		return
	}
	r.Histogram(name, labels).merge(h)
}

// Len reports the number of series.
func (r *Registry) Len() int { return len(r.order) }

// CounterValue reads one labeled counter (0, false when absent).
func (r *Registry) CounterValue(name string, labels Labels) (uint64, bool) {
	s, ok := r.byKey[seriesKey{name, labels}]
	if !ok || s.kind != KindCounter {
		return 0, false
	}
	return s.counter.Value(), true
}

// GaugeValue reads one labeled gauge (0, false when absent).
func (r *Registry) GaugeValue(name string, labels Labels) (float64, bool) {
	s, ok := r.byKey[seriesKey{name, labels}]
	if !ok || s.kind != KindGauge {
		return 0, false
	}
	return s.gauge.Value(), true
}

// Total sums a counter name across every label set (e.g. one counter
// over every host of a scrape).
func (r *Registry) Total(name string) uint64 {
	var sum uint64
	for _, s := range r.order {
		if s.key.name == name && s.kind == KindCounter {
			sum += s.counter.Value()
		}
	}
	return sum
}

// sorted snapshots the series ordered by (name, labels) — the stable
// render order, independent of registration order. Only renders pay
// for the sort; aggregations walk r.order.
func (r *Registry) sorted() []*series {
	out := append([]*series(nil), r.order...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.name != out[j].key.name {
			return out[i].key.name < out[j].key.name
		}
		return out[i].key.labels.String() < out[j].key.labels.String()
	})
	return out
}

// Snapshot deep-copies the registry: later recording into r leaves the
// snapshot untouched.
func (r *Registry) Snapshot() *Registry {
	out := NewRegistry()
	out.Merge(r)
	return out
}

// Merge folds other into r: counters and gauges sum, histograms merge
// bucket-wise, series absent from r are created.
func (r *Registry) Merge(other *Registry) {
	for _, s := range other.order {
		switch s.kind {
		case KindCounter:
			r.Counter(s.key.name, s.key.labels).Add(s.counter.Value())
		case KindGauge:
			r.Gauge(s.key.name, s.key.labels).Add(s.gauge.Value())
		default:
			r.Histogram(s.key.name, s.key.labels).merge(s.hist)
		}
	}
}

// Delta returns a new registry holding r minus prev per series:
// counters subtract clamped at zero (a restarted source reset its
// totals instead of wrapping uint64), histograms subtract bucket-wise,
// gauges keep their current (instantaneous) value.
func (r *Registry) Delta(prev *Registry) *Registry {
	out := NewRegistry()
	for _, s := range r.order {
		switch s.kind {
		case KindCounter:
			cur := s.counter.Value()
			if p, ok := prev.CounterValue(s.key.name, s.key.labels); ok && p < cur {
				out.Counter(s.key.name, s.key.labels).Set(cur - p)
			} else if !ok {
				out.Counter(s.key.name, s.key.labels).Set(cur)
			} else {
				out.Counter(s.key.name, s.key.labels).Set(0)
			}
		case KindGauge:
			out.Gauge(s.key.name, s.key.labels).Set(s.gauge.Value())
		default:
			ps, ok := prev.byKey[seriesKey{s.key.name, s.key.labels}]
			if ok && ps.kind == KindHistogram {
				out.Histogram(s.key.name, s.key.labels).merge(s.hist.delta(ps.hist))
			} else {
				out.Histogram(s.key.name, s.key.labels).merge(s.hist)
			}
		}
	}
	return out
}

// String renders one line per series, sorted by (name, labels):
//
//	flooded_frames{tenant=acme,host=pc00} 12
//	lookup_ms{broker=rdv} count=40 p50=2.1 p95=3.9 p99=4 max=4.2
func (r *Registry) String() string {
	var b strings.Builder
	for _, s := range r.sorted() {
		fmt.Fprintf(&b, "%s%s ", s.key.name, s.key.labels)
		switch s.kind {
		case KindCounter:
			fmt.Fprintf(&b, "%d", s.counter.Value())
		case KindGauge:
			fmt.Fprintf(&b, "%g", s.gauge.Value())
		default:
			b.WriteString(s.hist.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// seriesJSON is the registry's JSON row shape.
type seriesJSON struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  *float64          `json:"value,omitempty"`
	Count  *uint64           `json:"count,omitempty"`
	Sum    *float64          `json:"sum,omitempty"`
	P50    *float64          `json:"p50,omitempty"`
	P95    *float64          `json:"p95,omitempty"`
	P99    *float64          `json:"p99,omitempty"`
	Max    *float64          `json:"max,omitempty"`
}

func labelMap(l Labels) map[string]string {
	m := make(map[string]string)
	if l.Tenant != "" {
		m["tenant"] = l.Tenant
	}
	if l.Net != "" {
		m["net"] = l.Net
	}
	if l.Broker != "" {
		m["broker"] = l.Broker
	}
	if l.Host != "" {
		m["host"] = l.Host
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// MarshalJSON renders the registry as a sorted array of series rows.
func (r *Registry) MarshalJSON() ([]byte, error) {
	rows := make([]seriesJSON, 0, r.Len())
	f := func(v float64) *float64 { return &v }
	for _, s := range r.sorted() {
		row := seriesJSON{Name: s.key.name, Labels: labelMap(s.key.labels), Kind: s.kind.String()}
		switch s.kind {
		case KindCounter:
			row.Value = f(float64(s.counter.Value()))
		case KindGauge:
			row.Value = f(s.gauge.Value())
		default:
			n := s.hist.Count()
			row.Count = &n
			row.Sum = f(s.hist.Sum())
			row.P50 = f(s.hist.P50())
			row.P95 = f(s.hist.P95())
			row.P99 = f(s.hist.P99())
			row.Max = f(s.hist.Max())
		}
		rows = append(rows, row)
	}
	return json.Marshal(rows)
}
