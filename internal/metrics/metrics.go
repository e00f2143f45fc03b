// Package metrics is the simulator's live telemetry layer: a registry of
// monotonic counters, gauges and fixed-bucket histograms that the hot
// simulation path updates without allocating, plus a time-series sampler
// (see collector.go) that snapshots network state into ring-buffered
// per-window series, and an HTTP exporter (see http.go) serving
// Prometheus-text /metrics, /debug/pprof and a JSON /status snapshot while
// a run executes.
//
// Cost contract. Like the flight recorder (internal/trace), a nil
// *Collector is valid everywhere: every hot-path method nil-checks its
// receiver and returns immediately, so an unmetered simulation pays one
// predictable branch per instrumentation site and performs zero
// allocations. With a collector attached, counters and gauges are single
// atomic operations — the engine's event counters are stored once per
// cycle from its whole-run totals — and histogram observations are a
// bounds walk plus two atomic adds — still zero allocations — so scrapers
// may read concurrently with the simulation goroutine.
//
// Metrics are pure observation: they never feed back into simulation
// behavior, so fixed-seed sweep output is byte-identical with metrics on
// or off (CI enforces this).
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram of int64 observations.
// Bucket bounds are set at construction; observation is a linear walk over
// the (small) bound slice plus two atomic adds, with no allocation, so the
// hot path may call Observe freely.
type Histogram struct {
	bounds []int64        // upper bounds (inclusive), ascending
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	total  atomic.Int64
}

// NewHistogram builds a histogram with the given ascending inclusive upper
// bounds. An observation v lands in the first bucket with v <= bound, or in
// the implicit overflow bucket.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExpBounds returns bounds 1, 2, 4, ... doubling up to and including max.
func ExpBounds(max int64) []int64 {
	var out []int64
	for b := int64(1); b <= max; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketCount returns the count of bucket i (i == the number of configured
// bounds is the overflow bucket).
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric (one family member when labeled).
type entry struct {
	name     string // family name, e.g. "wormnet_marks_total"
	help     string
	kind     metricKind
	labelKey string // "" for unlabeled metrics
	labelVal string
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// sortKey orders family members next to each other, deterministically.
func (e *entry) sortKey() string { return e.name + "\x00" + e.labelKey + "\x00" + e.labelVal }

// Registry holds a set of named metrics and renders them in the Prometheus
// text exposition format. Registration is not hot-path (done once at
// attach time) and is synchronized; reading values is lock-free.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	sorted  bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, x := range r.entries {
		if x.name == e.name && x.labelKey == e.labelKey && x.labelVal == e.labelVal {
			panic(fmt.Sprintf("metrics: duplicate registration of %s{%s=%q}", e.name, e.labelKey, e.labelVal))
		}
	}
	r.entries = append(r.entries, e)
	r.sorted = false
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(entry{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// LabeledCounter registers one member of a counter family: the metric
// `name{key="val"}`. All members of a family share the name and help.
func (r *Registry) LabeledCounter(name, help, key, val string) *Counter {
	c := &Counter{}
	r.add(entry{name: name, help: help, kind: kindCounter, labelKey: key, labelVal: val, counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(entry{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// LabeledGauge registers one member of a gauge family.
func (r *Registry) LabeledGauge(name, help, key, val string) *Gauge {
	g := &Gauge{}
	r.add(entry{name: name, help: help, kind: kindGauge, labelKey: key, labelVal: val, gauge: g})
	return g
}

// Histogram registers and returns a new fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	h := NewHistogram(bounds)
	r.add(entry{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// snapshotEntries returns the entries sorted by (name, label), so exposition
// and merge order are deterministic.
func (r *Registry) snapshotEntries() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sorted {
		sort.Slice(r.entries, func(i, j int) bool {
			return r.entries[i].sortKey() < r.entries[j].sortKey()
		})
		r.sorted = true
	}
	return append([]entry(nil), r.entries...)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name then label, with
// HELP/TYPE headers emitted once per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.snapshotEntries()
	lastFamily := ""
	for _, e := range entries {
		if e.name != lastFamily {
			typ := "counter"
			switch e.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, typ); err != nil {
				return err
			}
			lastFamily = e.name
		}
		if err := writeEntry(w, &e); err != nil {
			return err
		}
	}
	return nil
}

func writeEntry(w io.Writer, e *entry) error {
	label := ""
	if e.labelKey != "" {
		label = fmt.Sprintf("{%s=%q}", e.labelKey, e.labelVal)
	}
	switch e.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.name, label, e.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.name, label, e.gauge.Value())
		return err
	case kindHistogram:
		h := e.hist
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.BucketCount(i)
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", e.name, fmt.Sprint(b), cum); err != nil {
				return err
			}
		}
		cum += h.BucketCount(len(h.bounds))
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n", e.name, h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", e.name, h.Count())
		return err
	}
	return nil
}

// Merge folds other into r: counters and histogram buckets are summed into
// the matching metric (same name, label key and label value); gauges take
// the maximum, treating each run's gauge as a high-water reading. Metrics
// present only in other are adopted (deep-copied), so an empty registry
// accumulates a sweep's schema from its first merge. Matching metrics of
// mismatched kinds are skipped. Both the sums and the max are commutative,
// so merging runs in any order yields identical aggregates (the sweep
// harness relies on this for determinism).
func (r *Registry) Merge(other *Registry) {
	theirs := other.snapshotEntries()
	r.mu.Lock()
	defer r.mu.Unlock()
	byKey := make(map[string]*entry, len(r.entries))
	for i := range r.entries {
		e := &r.entries[i]
		byKey[e.sortKey()] = e
	}
	for i := range theirs {
		t := &theirs[i]
		e, ok := byKey[t.sortKey()]
		if !ok {
			r.adopt(t)
			continue
		}
		if e.kind != t.kind {
			continue
		}
		switch e.kind {
		case kindCounter:
			e.counter.Add(t.counter.Value())
		case kindGauge:
			if v := t.gauge.Value(); v > e.gauge.Value() {
				e.gauge.Set(v)
			}
		case kindHistogram:
			if len(e.hist.bounds) != len(t.hist.bounds) {
				continue
			}
			for b := 0; b <= len(t.hist.bounds); b++ {
				e.hist.counts[b].Add(t.hist.BucketCount(b))
			}
			e.hist.sum.Add(t.hist.Sum())
			e.hist.total.Add(t.hist.Count())
		}
	}
}

// adopt deep-copies a foreign entry into r (caller holds r.mu).
func (r *Registry) adopt(t *entry) {
	ne := entry{name: t.name, help: t.help, kind: t.kind, labelKey: t.labelKey, labelVal: t.labelVal}
	switch t.kind {
	case kindCounter:
		c := &Counter{}
		c.Add(t.counter.Value())
		ne.counter = c
	case kindGauge:
		g := &Gauge{}
		g.Set(t.gauge.Value())
		ne.gauge = g
	case kindHistogram:
		h := NewHistogram(t.hist.bounds)
		for b := 0; b <= len(t.hist.bounds); b++ {
			h.counts[b].Store(t.hist.BucketCount(b))
		}
		h.sum.Store(t.hist.Sum())
		h.total.Store(t.hist.Count())
		ne.hist = h
	}
	r.entries = append(r.entries, ne)
	r.sorted = false
}
