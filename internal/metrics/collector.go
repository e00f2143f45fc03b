package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wormnet/internal/stats"
)

// Sample is one time-series point: the network's state at the end of a
// sampling window, plus the cumulative event counters at that instant
// (consumers difference adjacent samples for per-window rates). Every
// scalar field but Cycle carries one schema row, which names it by its JSON
// key; the series CSV columns are the fields in declaration order.
type Sample struct {
	// Cycle is the simulation cycle the sample was taken at.
	Cycle int64 `json:"cycle"`

	// Cumulative event counters at sample time.
	Generated     int64 `json:"generated"`
	Injected      int64 `json:"injected"`
	Delivered     int64 `json:"delivered"`
	DeliveredFlit int64 `json:"deliveredFlits"`
	MarkedTrue    int64 `json:"markedTrue"`
	MarkedFalse   int64 `json:"markedFalse"`
	Recovered     int64 `json:"recovered"`
	Reinjected    int64 `json:"reinjected"`

	// Instantaneous gauges at the end of the window's last cycle.
	Queued         int32 `json:"queued"`         // messages waiting in source queues
	Blocked        int32 `json:"blocked"`        // headers with at least one failed attempt
	BusyVCs        int32 `json:"busyVCs"`        // occupied virtual channels (all classes)
	BusyLinks      int32 `json:"busyLinks"`      // physical channels with >= 1 busy VC
	IFlags         int32 `json:"iFlags"`         // output channels with the I flag set
	DTFlags        int32 `json:"dtFlags"`        // output channels with the DT flag set
	GFlags         int32 `json:"gFlags"`         // input channels holding G
	RecoveryDepth  int32 `json:"recoveryDepth"`  // messages undergoing recovery
	OracleSet      int32 `json:"oracleSet"`      // latest oracle deadlocked-set size
	ProbesInFlight int32 `json:"probesInFlight"` // CMH probes traversing the fabric

	// Sparse-kernel active-set gauges: the sizes of the structures the
	// activity-driven cycle kernel iterates, i.e. how much work one cycle
	// actually is.
	NonemptyQueues int32 `json:"nonemptyQueues"` // nodes with a nonempty source queue
	ActiveLinks    int32 `json:"activeLinks"`    // output links that carried a flit this cycle
	WormsInFlight  int32 `json:"wormsInFlight"`  // messages admitted and not yet delivered/requeued

	// Episode (forensics) families, zero unless an episode correlator feeds
	// the collector: cumulative closed-episode counts by verdict, the
	// cumulative MTTD/MTTR sums and observation counts (difference and
	// divide adjacent samples for windowed means), and the episodes-open
	// gauge.
	EpisodesTrue  int64 `json:"episodesTrue"`
	EpisodesFalse int64 `json:"episodesFalse"`
	MTTDSum       int64 `json:"mttdSum"`
	MTTDCount     int64 `json:"mttdCount"`
	MTTRSum       int64 `json:"mttrSum"`
	MTTRCount     int64 `json:"mttrCount"`
	EpisodesOpen  int32 `json:"episodesOpen"`

	// Per-dimension occupancy of network physical channels. DimVCs[d] is
	// the number of busy VCs on dimension-d network channels; DimLinks[d]
	// counts the busy channels themselves.
	DimVCs   []int32 `json:"dimVCs"`
	DimLinks []int32 `json:"dimLinks"`
}

// copyInto deep-copies s into dst, reusing dst's per-dimension slices.
func (s *Sample) copyInto(dst *Sample) {
	dv, dl := dst.DimVCs[:0], dst.DimLinks[:0]
	*dst = *s
	dst.DimVCs = append(dv, s.DimVCs...)
	dst.DimLinks = append(dl, s.DimLinks...)
}

// Prober supplies the instantaneous gauge fields of a Sample. The
// simulation engine implements it; ProbeMetrics must fill every gauge field
// it reports (each arrives holding the gauge's current value, and counter
// fields are stamped by the collector) and count into the zeroed
// per-dimension slices, without retaining s.
type Prober interface {
	ProbeMetrics(s *Sample)
}

// Options configure a Collector.
type Options struct {
	// Window is the sampling window in cycles (default 256): one Sample is
	// taken every Window cycles.
	Window int64
}

// DefaultWindow is the Options default; ringSize bounds how many samples
// are kept (older samples are overwritten, and series dumps emit the ring
// oldest-first).
const (
	DefaultWindow = 256
	ringSize      = 4096
)

// Collector is the hot-path façade of the metrics subsystem: the engine
// observes its latency histograms at their sites and publishes its event
// totals once per cycle through EndCycle, and the sampler snapshots network
// state every window. A Collector is owned by exactly one simulation engine;
// sweeps attach a distinct collector per run and merge the finished runs
// into an unattached one. Scrapers (the HTTP exporter, status snapshots,
// series dumps) may read concurrently with the simulation.
type Collector struct {
	window int64

	// The schema's counters and gauges, one slot per row, and its
	// histograms, hLatency..hMTTR.
	vals  [numRows]atomic.Int64
	hists [hMTTR - hLatency + 1]histState

	// The per-run families: the detector of the run (of every merged run,
	// sorted, in an aggregate) and the per-dimension busy gauges.
	detectors        []string
	dimVCs, dimLinks []atomic.Int64

	// Sampler state. nextSample is touched only by the engine goroutine;
	// the ring and scratch are guarded by mu against concurrent scrapes.
	nextSample int64
	scratch    Sample
	mu         sync.Mutex
	ring       []Sample
	next       int
	size       int

	attached bool
}

// NewCollector builds a collector. A zero Window selects the default.
func NewCollector(opt Options) *Collector {
	if opt.Window <= 0 {
		opt.Window = DefaultWindow
	}
	return &Collector{window: opt.Window}
}

// Window returns the sampling window in cycles.
func (c *Collector) Window() int64 {
	if c == nil {
		return 0
	}
	return c.window
}

// Attach binds the collector to one simulation: the detector name (for the
// /status snapshot and info metric) and the topology's dimension count,
// which sizes the per-dimension occupancy series. The engine calls it once
// from New; calling Attach twice panics — collectors are single-run.
func (c *Collector) Attach(detector string, dims int) {
	if c == nil {
		return
	}
	if c.attached {
		panic("metrics: Collector attached to a second engine; collectors are single-run")
	}
	c.attached = true
	c.detectors = []string{detector}
	c.dimVCs = make([]atomic.Int64, dims)
	c.dimLinks = make([]atomic.Int64, dims)
	c.scratch.DimVCs = make([]int32, dims)
	c.scratch.DimLinks = make([]int32, dims)
	c.ring = make([]Sample, ringSize)
	for i := range c.ring {
		c.ring[i].DimVCs = make([]int32, 0, dims)
		c.ring[i].DimLinks = make([]int32, 0, dims)
	}
}

// Value returns row m's current value (0 on a nil receiver).
func (c *Collector) Value(m Metric) int64 {
	if c == nil {
		return 0
	}
	return c.vals[m].Load()
}

// hist returns histogram row m's state.
func (c *Collector) hist(m Metric) *histState { return &c.hists[m-hLatency] }

// observe records one value into histogram row m: it lands in the first
// bucket whose bound is >= v, or in +Inf.
func (c *Collector) observe(m Metric, v int64) {
	i := 0
	if v > 1 {
		i = min(bits.Len64(uint64(v-1)), schema[m].bounds())
	}
	h := c.hist(m)
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveLatency records one delivered message's generation-to-delivery
// latency. Nil-safe.
func (c *Collector) ObserveLatency(cycles int64) {
	if c == nil {
		return
	}
	c.observe(hLatency, cycles)
}

// ObserveDetectDelay records one mark's first-failed-attempt-to-mark delay.
func (c *Collector) ObserveDetectDelay(cycles int64) {
	if c == nil {
		return
	}
	c.observe(hDetectDelay, cycles)
}

// ObserveDetectLatency records one mark's oracle-to-mark latency.
func (c *Collector) ObserveDetectLatency(cycles int64) {
	if c == nil {
		return
	}
	c.observe(hDetectLatency, cycles)
}

// ObserveEpisode records one closed deadlock episode: its oracle verdict
// and, when known (>= 0), its MTTD (episode open to first mark) and MTTR
// (first mark to close) in cycles. The forensics correlator calls it;
// nil-safe.
func (c *Collector) ObserveEpisode(trueDeadlock bool, mttd, mttr int64) {
	if c == nil {
		return
	}
	if trueDeadlock {
		c.vals[MEpisodesTrue].Add(1)
	} else {
		c.vals[MEpisodesFalse].Add(1)
	}
	if mttd >= 0 {
		c.observe(hMTTD, mttd)
	}
	if mttr >= 0 {
		c.observe(hMTTR, mttr)
	}
}

// SetEpisodesOpen updates the episodes-in-flight gauge. Nil-safe.
func (c *Collector) SetEpisodesOpen(n int) {
	if c == nil {
		return
	}
	c.vals[gEpisodesOpen].Store(int64(n))
}

// EndCycle publishes the engine's whole-run totals t, with the flits
// progressive recovery has absorbed so far, and, on window boundaries, takes
// a sample by probing p. The engine calls it once per Step, at the end of
// cycle now; on a nil receiver it is a single branch.
func (c *Collector) EndCycle(now int64, t *stats.Counters, absorbedFlits int64, p Prober) {
	if c == nil {
		return
	}
	totals := [numEngineMetrics]int64{
		MGenerated:       t.Generated,
		MInjected:        t.Injected,
		MDelivered:       t.Delivered,
		MDeliveredFlits:  t.DeliveredFlits,
		MMarkedTrue:      t.TrueMarked,
		MMarkedFalse:     t.FalseMarked,
		MRecovered:       t.Absorbed + t.Aborted,
		MReinjected:      t.Reinjected,
		MAbsorbedFlits:   absorbedFlits,
		MCycles:          t.Cycles,
		MDTFlagCycles:    t.DTFlagCycleSum,
		MProbesEmitted:   t.ProbesEmitted,
		MProbesForwarded: t.ProbesForwarded,
		MProbesDropped:   t.ProbesDropped,
		MProbesReturned:  t.ProbesReturned,
		MProbeFlits:      t.ProbeFlits,
	}
	for m, v := range totals {
		c.vals[m].Store(v)
	}
	if now < c.nextSample {
		return
	}
	c.nextSample = now + c.window
	c.takeSample(now, p)
}

// sampleColumns are the indices of Sample's scalar fields, in declaration
// order, and sampleKeys their JSON keys: the series CSV columns before the
// per-dimension ones. sampled lists the schema rows the sampler carries.
var (
	sampleColumns []int
	sampleKeys    []string
	sampled       []sampledRow
)

// sampledRow pairs a sampled schema row with the Sample field carrying it;
// a histogram is carried by its sum field and its count field.
type sampledRow struct {
	m            Metric
	field, count int
}

func init() {
	t := reflect.TypeFor[Sample]()
	field := map[string]int{}
	for i := 0; i < t.NumField(); i++ {
		key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		field[key] = i
		if t.Field(i).Type.Kind() != reflect.Slice {
			sampleColumns = append(sampleColumns, i)
			sampleKeys = append(sampleKeys, key)
		}
	}
	for m, q := range schema {
		if q.series == "" {
			continue
		}
		r, ok, okCount := sampledRow{m: Metric(m)}, false, true
		if q.kind == histogram {
			r.field, ok = field[q.series+"Sum"]
			r.count, okCount = field[q.series+"Count"]
		} else {
			r.field, ok = field[q.series]
		}
		if !ok || !okCount {
			panic("metrics: no Sample field carries " + q.name + " (series " + q.series + ")")
		}
		sampled = append(sampled, r)
	}
}

// takeSample snapshots one Sample into the ring and mirrors its gauges
// into the schema's. Runs on the engine goroutine; allocation-free once
// attached (scratch and ring slots are pre-sized).
func (c *Collector) takeSample(now int64, p Prober) {
	s := &c.scratch
	v := reflect.ValueOf(s).Elem()
	s.Cycle = now
	for _, f := range sampled {
		if schema[f.m].kind == histogram {
			h := c.hist(f.m)
			v.Field(f.field).SetInt(h.sum.Load())
			v.Field(f.count).SetInt(h.count.Load())
		} else {
			v.Field(f.field).SetInt(c.vals[f.m].Load())
		}
	}
	clear(s.DimVCs)
	clear(s.DimLinks)
	if p != nil {
		p.ProbeMetrics(s)
	}
	for _, f := range sampled {
		if schema[f.m].kind == gauge {
			c.vals[f.m].Store(v.Field(f.field).Int())
		}
	}
	for d := range c.dimVCs {
		c.dimVCs[d].Store(int64(s.DimVCs[d]))
		c.dimLinks[d].Store(int64(s.DimLinks[d]))
	}

	c.mu.Lock()
	s.copyInto(&c.ring[c.next])
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
	}
	if c.size < len(c.ring) {
		c.size++
	}
	c.mu.Unlock()
}

// SetClassVCs lets the prober report busy-VC counts per channel class
// (network, injection, delivery). Called from inside ProbeMetrics; nil-safe.
func (c *Collector) SetClassVCs(net, inj, del int32) {
	if c == nil {
		return
	}
	c.vals[gClassNet].Store(int64(net))
	c.vals[gClassInj].Store(int64(inj))
	c.vals[gClassDel].Store(int64(del))
}

// Samples appends the ring's contents, oldest first, to buf and returns it.
// The returned samples are deep copies and safe to retain.
func (c *Collector) Samples(buf []Sample) []Sample {
	if c == nil {
		return buf
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.next - c.size
	if start < 0 {
		start += len(c.ring)
	}
	for i := 0; i < c.size; i++ {
		src := &c.ring[(start+i)%len(c.ring)]
		var dst Sample
		src.copyInto(&dst)
		// copyInto reuses dst's nil slices via append, which allocates fresh
		// backing arrays here — exactly what "safe to retain" needs.
		buf = append(buf, dst)
	}
	return buf
}

// SampleCount returns how many samples the ring currently holds.
func (c *Collector) SampleCount() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// WriteSeriesJSONL emits the ring's samples, oldest first, one JSON object
// per line.
func (c *Collector) WriteSeriesJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, s := range c.Samples(nil) {
		if err := enc.Encode(&s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSeriesCSV emits the ring's samples, oldest first, as CSV with a
// header row. The columns are the JSONL keys in the same order, with the
// per-dimension ones spread out as dimVCs0..N-1 and dimLinks0..N-1.
func (c *Collector) WriteSeriesCSV(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(strings.Join(sampleKeys, ","))
	for d := range c.dimVCs {
		fmt.Fprintf(bw, ",dimVCs%d", d)
	}
	for d := range c.dimLinks {
		fmt.Fprintf(bw, ",dimLinks%d", d)
	}
	bw.WriteByte('\n')
	for _, s := range c.Samples(nil) {
		v := reflect.ValueOf(&s).Elem()
		for i, f := range sampleColumns {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatInt(v.Field(f).Int(), 10))
		}
		for _, d := range append(s.DimVCs, s.DimLinks...) {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatInt(int64(d), 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// DecodeSeries reads a JSONL series written by WriteSeriesJSONL. Errors
// report the 1-based line number of the malformed line.
func DecodeSeries(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s Sample
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("metrics: series line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Status is the JSON document served at /status: run identity, cumulative
// counters, and the most recent sample.
type Status struct {
	Detector string           `json:"detector"`
	Window   int64            `json:"windowCycles"`
	Cycles   int64            `json:"cycles"`
	Samples  int              `json:"samples"`
	Counters map[string]int64 `json:"counters"`
	Last     *Sample          `json:"last,omitempty"`
}

// Snapshot assembles a Status document. Nil-safe; returns a zero Status on
// a nil collector.
func (c *Collector) Snapshot() Status {
	if c == nil {
		return Status{}
	}
	st := Status{
		Detector: strings.Join(c.detectors, ","),
		Window:   c.window,
		Cycles:   c.vals[MCycles].Load(),
		Counters: make(map[string]int64),
	}
	for m, q := range schema {
		if q.kind != counter {
			continue
		}
		key := q.name
		if q.labelKey != "" {
			key = fmt.Sprintf("%s{%s=%q}", q.name, q.labelKey, q.labelVal)
		}
		st.Counters[key] = c.vals[m].Load()
	}
	c.mu.Lock()
	st.Samples = c.size
	if c.size > 0 {
		last := c.next - 1
		if last < 0 {
			last += len(c.ring)
		}
		var s Sample
		c.ring[last].copyInto(&s)
		st.Last = &s
	}
	c.mu.Unlock()
	return st
}
