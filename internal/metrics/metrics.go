// Package metrics is the simulator's live telemetry layer: a collector of
// monotonic counters, gauges and fixed-bucket histograms that the hot
// simulation path updates without allocating, a time-series sampler (see
// collector.go) that snapshots network state into ring-buffered per-window
// series, and an HTTP exporter (see http.go) serving Prometheus-text
// /metrics, /debug/pprof and a JSON /status snapshot while a run executes.
//
// Every exported quantity is declared once, as a row of schema below: its
// Prometheus family, help text, label and, when it is sampled, the Sample
// field that carries it in the series. The exposition, the series columns,
// the gauge mirror of each sample, the /status counters and the sweep merge
// are all derived from that table.
//
// Cost contract. Like the flight recorder (internal/trace), a nil
// *Collector is valid everywhere: every hot-path method nil-checks its
// receiver and returns immediately, so an unmetered simulation pays one
// predictable branch per instrumentation site and performs zero
// allocations. With a collector attached, counters and gauges are single
// atomic operations on fixed arrays — the engine's event counters are
// stored once per cycle from its whole-run totals — and histogram
// observations are a bit count plus three atomic adds — still zero
// allocations — so scrapers may read concurrently with the simulation
// goroutine.
//
// Metrics are pure observation: they never feed back into simulation
// behavior, so fixed-seed sweep output is byte-identical with metrics on
// or off (CI enforces this).
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
)

// kind is a quantity's Prometheus metric type.
type kind uint8

const (
	counter kind = iota
	gauge
	histogram
)

var kindNames = [...]string{counter: "counter", gauge: "gauge", histogram: "histogram"}

// quantity is one row of the schema: one member of a Prometheus family.
type quantity struct {
	kind               kind
	name, help         string
	labelKey, labelVal string
	// series is the JSON key of the Sample field the quantity is sampled
	// into, "" when it is not sampled. A histogram is sampled as its sum
	// and count, under series+"Sum" and series+"Count".
	series string
	// max is a histogram's largest finite bucket bound: its buckets are
	// 1, 2, 4, ... max, then +Inf.
	max int64
}

// Metric names a row of the schema. The exported names are the event
// counters; the engine's come first, and EndCycle stores its whole-run
// totals into them once per cycle. The other named rows are the quantities
// the collector sets by name; a sampled gauge needs no name, because the
// sampler mirrors it from its Sample field.
type Metric uint8

// Event counters.
const (
	// MGenerated counts messages created at sources.
	MGenerated Metric = iota
	// MInjected counts messages admitted into the network.
	MInjected
	// MDelivered counts messages fully consumed at their destination.
	MDelivered
	// MDeliveredFlits counts flits of delivered messages.
	MDeliveredFlits
	// MMarkedTrue counts detector marks the oracle confirmed as true
	// deadlocks; MMarkedFalse counts false detections.
	MMarkedTrue
	MMarkedFalse
	// MRecovered counts messages fully removed from the fabric by recovery.
	MRecovered
	// MReinjected counts recovered messages re-entering a source queue.
	MReinjected
	// MAbsorbedFlits counts flits drained through progressive-recovery
	// absorption ports.
	MAbsorbedFlits
	// MCycles counts simulated cycles.
	MCycles
	// MDTFlagCycles sums, over cycles, the number of output channels whose
	// detection-threshold flag was set at the end of the cycle (the live
	// carrier of the DT-occupancy metric; divide by MCycles for the mean).
	MDTFlagCycles
	// MProbesEmitted..MProbesReturned count CMH probe lifecycle events by
	// outcome; MProbeFlits counts control flits probe movement charged to
	// physical links (the bandwidth cost of edge chasing). Zero for
	// detectors that do not transport probes.
	MProbesEmitted
	MProbesForwarded
	MProbesDropped
	MProbesReturned
	MProbeFlits
	// MEpisodesTrue / MEpisodesFalse count closed deadlock episodes by
	// verdict, fed by the forensics episode correlator when one is attached
	// (zero otherwise).
	MEpisodesTrue
	MEpisodesFalse

	gEpisodesOpen
	gClassNet
	gClassInj
	gClassDel
	hLatency
	hDetectDelay
	hDetectLatency
	hMTTD
	hMTTR
	// The per-run families: their members are the detector of each run
	// (wormnet_info) and the dimensions of its topology.
	rowInfo
	rowDimVCs
	rowDimLinks
)

// numEngineMetrics counts the engine's counters, MGenerated..MProbeFlits.
const numEngineMetrics = MEpisodesTrue

// schema declares every quantity the collector exports.
var schema = [...]quantity{
	MGenerated:       {counter, "wormnet_messages_generated_total", "Messages created at sources.", "", "", "generated", 0},
	MInjected:        {counter, "wormnet_messages_injected_total", "Messages admitted into the network.", "", "", "injected", 0},
	MDelivered:       {counter, "wormnet_messages_delivered_total", "Messages fully consumed at their destination.", "", "", "delivered", 0},
	MDeliveredFlits:  {counter, "wormnet_flits_delivered_total", "Flits of delivered messages.", "", "", "deliveredFlits", 0},
	MMarkedTrue:      {counter, "wormnet_marks_total", "Detector marks by oracle verdict.", "verdict", "true", "markedTrue", 0},
	MMarkedFalse:     {counter, "wormnet_marks_total", "Detector marks by oracle verdict.", "verdict", "false", "markedFalse", 0},
	MRecovered:       {counter, "wormnet_recoveries_total", "Messages fully removed from the fabric by recovery.", "", "", "recovered", 0},
	MReinjected:      {counter, "wormnet_messages_reinjected_total", "Recovered messages re-entering a source queue.", "", "", "reinjected", 0},
	MAbsorbedFlits:   {counter, "wormnet_recovery_absorbed_flits_total", "Flits drained through progressive-recovery absorption.", "", "", "", 0},
	MCycles:          {counter, "wormnet_cycles_total", "Simulated cycles.", "", "", "", 0},
	MDTFlagCycles:    {counter, "wormnet_dt_flag_cycle_sum_total", "Sum over cycles of output channels with the DT flag set.", "", "", "", 0},
	MProbesEmitted:   {counter, "wormnet_probes_total", "CMH probe lifecycle events, by outcome.", "event", "emit", "", 0},
	MProbesForwarded: {counter, "wormnet_probes_total", "CMH probe lifecycle events, by outcome.", "event", "forward", "", 0},
	MProbesDropped:   {counter, "wormnet_probes_total", "CMH probe lifecycle events, by outcome.", "event", "drop", "", 0},
	MProbesReturned:  {counter, "wormnet_probes_total", "CMH probe lifecycle events, by outcome.", "event", "return", "", 0},
	MProbeFlits:      {counter, "wormnet_probe_flits_total", "Control flits charged to physical links by probe movement.", "", "", "", 0},
	MEpisodesTrue:    {counter, "wormnet_episodes_total", "Closed deadlock episodes by verdict.", "verdict", "true-deadlock", "episodesTrue", 0},
	MEpisodesFalse:   {counter, "wormnet_episodes_total", "Closed deadlock episodes by verdict.", "verdict", "false-positive", "episodesFalse", 0},

	gEpisodesOpen: {gauge, "wormnet_episodes_open", "Deadlock episodes currently in flight.", "", "", "episodesOpen", 0},
	gClassNet:     {gauge, "wormnet_class_busy_vcs", "Busy VCs by physical-channel class.", "class", "net", "", 0},
	gClassInj:     {gauge, "wormnet_class_busy_vcs", "Busy VCs by physical-channel class.", "class", "inj", "", 0},
	gClassDel:     {gauge, "wormnet_class_busy_vcs", "Busy VCs by physical-channel class.", "class", "del", "", 0},

	hLatency:       {histogram, "wormnet_latency_cycles", "Generation-to-delivery latency of delivered messages.", "", "", "", 1 << 14},
	hDetectDelay:   {histogram, "wormnet_detect_delay_cycles", "First failed routing attempt to detector mark.", "", "", "", 1 << 12},
	hDetectLatency: {histogram, "wormnet_detect_latency_cycles", "Oracle-confirmed deadlock to detector mark.", "", "", "", 1 << 12},
	hMTTD:          {histogram, "wormnet_episode_mttd_cycles", "Episode open (first oracle sighting) to first detector mark.", "", "", "mttd", 1 << 12},
	hMTTR:          {histogram, "wormnet_episode_mttr_cycles", "First detector mark to episode close (last member drained).", "", "", "mttr", 1 << 14},

	rowInfo:     {gauge, "wormnet_info", "Static run information.", "detector", "", "", 0},
	rowDimVCs:   {gauge, "wormnet_dim_busy_vcs", "Busy VCs on network channels, by dimension.", "dim", "", "", 0},
	rowDimLinks: {gauge, "wormnet_dim_busy_links", "Busy network channels, by dimension.", "dim", "", "", 0},

	// The sampled gauges: the prober fills their Sample fields and the
	// sampler mirrors them here.
	{gauge, "wormnet_source_queued", "Messages waiting in source queues.", "", "", "queued", 0},
	{gauge, "wormnet_blocked_headers", "Blocked headers (>= 1 failed routing attempt).", "", "", "blocked", 0},
	{gauge, "wormnet_busy_vcs", "Occupied virtual channels.", "", "", "busyVCs", 0},
	{gauge, "wormnet_busy_links", "Physical channels with at least one busy VC.", "", "", "busyLinks", 0},
	{gauge, "wormnet_flag_occupancy", "Detection flags currently set, by flag.", "flag", "i", "iFlags", 0},
	{gauge, "wormnet_flag_occupancy", "Detection flags currently set, by flag.", "flag", "dt", "dtFlags", 0},
	{gauge, "wormnet_flag_occupancy", "Detection flags currently set, by flag.", "flag", "g", "gFlags", 0},
	{gauge, "wormnet_recovery_depth", "Messages currently undergoing recovery.", "", "", "recoveryDepth", 0},
	{gauge, "wormnet_oracle_deadlocked", "Latest oracle deadlocked-set size.", "", "", "oracleSet", 0},
	{gauge, "wormnet_probes_in_flight", "CMH probes currently traversing the fabric.", "", "", "probesInFlight", 0},
	{gauge, "wormnet_nonempty_queues", "Nodes with a nonempty source queue.", "", "", "nonemptyQueues", 0},
	{gauge, "wormnet_active_links", "Output links that carried a flit in the sampled cycle.", "", "", "activeLinks", 0},
	{gauge, "wormnet_worms_in_flight", "Messages admitted into the network and not yet delivered or re-queued.", "", "", "wormsInFlight", 0},
}

// numRows sizes the collector's value array: one slot per row.
const numRows = len(schema)

// maxBuckets bounds a histogram's buckets: 15 finite bounds (1 .. 1<<14)
// plus +Inf.
const maxBuckets = 16

// histState is one fixed-bucket histogram's state; its bounds are its
// schema row's.
type histState struct {
	buckets    [maxBuckets]atomic.Int64 // buckets[i] counts v <= 1<<i; the last used one is +Inf
	sum, count atomic.Int64
}

// bounds is the number of finite bucket bounds of a histogram row.
func (q *quantity) bounds() int { return bits.Len64(uint64(q.max)) }

// exposition lists the schema's rows in the order they are rendered: by
// family name, then label key and label value, compared as strings.
var exposition = func() []Metric {
	rows := make([]Metric, numRows)
	for i := range rows {
		rows[i] = Metric(i)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := &schema[rows[i]], &schema[rows[j]]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.labelKey != b.labelKey {
			return a.labelKey < b.labelKey
		}
		return a.labelVal < b.labelVal
	})
	return rows
}()

// WritePrometheus renders every quantity in the Prometheus text exposition
// format (version 0.0.4), sorted by name then label, with HELP/TYPE headers
// emitted once per family. A family with no members (the per-run families
// of a collector never attached) is left out. Nil-safe: a nil collector
// writes nothing.
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	family := ""
	for _, m := range exposition {
		q := &schema[m]
		member := func(label string, v int64) {
			if q.name != family {
				fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", q.name, q.help, q.name, kindNames[q.kind])
				family = q.name
			}
			if q.kind == histogram { // one member: its buckets, sum and count
				c.writeHistogram(bw, m)
				return
			}
			bw.WriteString(q.name)
			if q.labelKey != "" {
				fmt.Fprintf(bw, "{%s=%q}", q.labelKey, label)
			}
			fmt.Fprintf(bw, " %d\n", v)
		}
		switch m {
		case rowInfo:
			for _, d := range c.detectors {
				member(d, 1)
			}
		case rowDimVCs, rowDimLinks:
			g := c.dimVCs
			if m == rowDimLinks {
				g = c.dimLinks
			}
			// Members sort by label as strings: dim="10" before dim="2".
			dims := make([]string, len(g))
			for d := range dims {
				dims[d] = strconv.Itoa(d)
			}
			sort.Strings(dims)
			for _, label := range dims {
				d, _ := strconv.Atoi(label)
				member(label, g[d].Load())
			}
		default:
			member(q.labelVal, c.vals[m].Load())
		}
	}
	return bw.Flush()
}

// writeHistogram renders histogram row m's cumulative buckets, sum and count.
func (c *Collector) writeHistogram(w io.Writer, m Metric) {
	q, h := &schema[m], c.hist(m)
	n, cum := q.bounds(), int64(0)
	for i := 0; i <= n; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < n {
			le = strconv.FormatInt(1<<i, 10)
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", q.name, le, cum)
	}
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", q.name, h.sum.Load(), q.name, h.count.Load())
}

// Merge folds the finished run collector o into c, as a sweep aggregates its
// runs: counters and histogram buckets are summed, gauges keep the maximum
// (each run's gauge is read as a high-water mark), the wormnet_info members
// are the union of the runs' detectors and the per-dimension members those
// of the run with the most dimensions. Sums, maxima and unions commute, so
// merging runs in any order yields identical aggregates (the sweep harness
// relies on this for determinism). c must be an unattached collector that
// nothing scrapes while runs are merged into it.
func (c *Collector) Merge(o *Collector) {
	for m := range schema {
		switch schema[m].kind {
		case counter:
			c.vals[m].Add(o.vals[m].Load())
		case gauge:
			c.vals[m].Store(max(c.vals[m].Load(), o.vals[m].Load()))
		case histogram:
			h, oh := c.hist(Metric(m)), o.hist(Metric(m))
			for i := range h.buckets {
				h.buckets[i].Add(oh.buckets[i].Load())
			}
			h.sum.Add(oh.sum.Load())
			h.count.Add(oh.count.Load())
		}
	}
	for _, d := range o.detectors {
		if i, found := slices.BinarySearch(c.detectors, d); !found {
			c.detectors = slices.Insert(c.detectors, i, d)
		}
	}
	c.dimVCs = mergeMax(c.dimVCs, o.dimVCs)
	c.dimLinks = mergeMax(c.dimLinks, o.dimLinks)
}

// mergeMax keeps, per index, the larger of two gauge vectors, growing into
// to the length of from when from is longer.
func mergeMax(into, from []atomic.Int64) []atomic.Int64 {
	if len(from) > len(into) {
		grown := make([]atomic.Int64, len(from))
		for i := range into {
			grown[i].Store(into[i].Load())
		}
		into = grown
	}
	for i := range from {
		into[i].Store(max(into[i].Load(), from[i].Load()))
	}
	return into
}
