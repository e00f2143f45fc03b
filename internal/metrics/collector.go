package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"wormnet/internal/stats"
)

// Metric identifies one of the collector's event counters; each maps onto a
// registered Prometheus counter. The engine's counters come first: EndCycle
// stores the engine's whole-run totals into them once per cycle.
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

	numMetrics
)

// numEngineMetrics counts the engine's counters, MGenerated..MProbeFlits.
const numEngineMetrics = MEpisodesTrue

// metricSpec declares how each event counter appears in the registry.
var metricSpecs = [numMetrics]struct {
	name, help, labelKey, labelVal string
}{
	MGenerated:       {"wormnet_messages_generated_total", "Messages created at sources.", "", ""},
	MInjected:        {"wormnet_messages_injected_total", "Messages admitted into the network.", "", ""},
	MDelivered:       {"wormnet_messages_delivered_total", "Messages fully consumed at their destination.", "", ""},
	MDeliveredFlits:  {"wormnet_flits_delivered_total", "Flits of delivered messages.", "", ""},
	MMarkedTrue:      {"wormnet_marks_total", "Detector marks by oracle verdict.", "verdict", "true"},
	MMarkedFalse:     {"wormnet_marks_total", "Detector marks by oracle verdict.", "verdict", "false"},
	MRecovered:       {"wormnet_recoveries_total", "Messages fully removed from the fabric by recovery.", "", ""},
	MReinjected:      {"wormnet_messages_reinjected_total", "Recovered messages re-entering a source queue.", "", ""},
	MAbsorbedFlits:   {"wormnet_recovery_absorbed_flits_total", "Flits drained through progressive-recovery absorption.", "", ""},
	MCycles:          {"wormnet_cycles_total", "Simulated cycles.", "", ""},
	MDTFlagCycles:    {"wormnet_dt_flag_cycle_sum_total", "Sum over cycles of output channels with the DT flag set.", "", ""},
	MProbesEmitted:   {"wormnet_probes_total", "CMH probe lifecycle events, by outcome.", "event", "emit"},
	MProbesForwarded: {"wormnet_probes_total", "CMH probe lifecycle events, by outcome.", "event", "forward"},
	MProbesDropped:   {"wormnet_probes_total", "CMH probe lifecycle events, by outcome.", "event", "drop"},
	MProbesReturned:  {"wormnet_probes_total", "CMH probe lifecycle events, by outcome.", "event", "return"},
	MProbeFlits:      {"wormnet_probe_flits_total", "Control flits charged to physical links by probe movement.", "", ""},
	MEpisodesTrue:    {"wormnet_episodes_total", "Closed deadlock episodes by verdict.", "verdict", "true-deadlock"},
	MEpisodesFalse:   {"wormnet_episodes_total", "Closed deadlock episodes by verdict.", "verdict", "false-positive"},
}

// Sample is one time-series point: the network's state at the end of a
// sampling window, plus the cumulative event counters at that instant
// (consumers difference adjacent samples for per-window rates).
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
// simulation engine implements it; Probe must fill every gauge field
// (counter fields are stamped by the collector) without retaining s.
type Prober interface {
	ProbeMetrics(s *Sample)
}

// Options configure a Collector.
type Options struct {
	// Window is the sampling window in cycles (default 256): one Sample is
	// taken every Window cycles.
	Window int64
	// Ring bounds how many samples are kept (default 4096); older samples
	// are overwritten. Series dumps emit the ring oldest-first.
	Ring int
}

// DefaultWindow and DefaultRing are the Options defaults.
const (
	DefaultWindow = 256
	DefaultRing   = 4096
)

// Collector is the hot-path façade of the metrics subsystem: the engine
// observes its latency histograms at their sites and publishes its event
// totals once per cycle through EndCycle, and the sampler snapshots network
// state every window. A Collector is owned by exactly one simulation engine;
// sweeps attach a distinct collector per run. Scrapers (the HTTP exporter,
// status snapshots, series dumps) may read concurrently with the simulation.
type Collector struct {
	reg    *Registry
	window int64

	counts [numMetrics]*Counter

	// Registry views of the latest sample's gauges.
	gQueued, gBlocked, gBusyVCs, gBusyLinks *Gauge
	gIFlags, gDTFlags, gGFlags              *Gauge
	gRecoveryDepth, gOracleSet              *Gauge
	gProbesInFlight                         *Gauge
	gNonemptyQueues, gActiveLinks           *Gauge
	gWormsInFlight                          *Gauge
	dimVCs, dimLinks                        []*Gauge
	classVCs                                [3]*Gauge // net, inj, del busy VCs

	// Latency histograms (cycles), observed over the whole run.
	latency  *Histogram // generation -> delivery
	detDelay *Histogram // first failed attempt -> mark
	detLat   *Histogram // oracle-first-deadlock -> mark

	// Episode families (forensics correlator).
	gEpisodesOpen *Gauge
	epMTTD        *Histogram // episode open -> first mark
	epMTTR        *Histogram // first mark -> episode close

	// Sampler state. nextSample is touched only by the engine goroutine;
	// the ring and scratch are guarded by mu against concurrent scrapes.
	nextSample int64
	scratch    Sample
	mu         sync.Mutex
	ring       []Sample
	next       int
	size       int

	detector string
	dims     int
	attached bool
}

// NewCollector builds a collector. Zero-valued options select the defaults.
func NewCollector(opt Options) *Collector {
	if opt.Window <= 0 {
		opt.Window = DefaultWindow
	}
	if opt.Ring <= 0 {
		opt.Ring = DefaultRing
	}
	c := &Collector{reg: NewRegistry(), window: opt.Window, ring: make([]Sample, opt.Ring)}
	for m := Metric(0); m < numMetrics; m++ {
		spec := metricSpecs[m]
		if spec.labelKey != "" {
			c.counts[m] = c.reg.LabeledCounter(spec.name, spec.help, spec.labelKey, spec.labelVal)
		} else {
			c.counts[m] = c.reg.Counter(spec.name, spec.help)
		}
	}
	c.gQueued = c.reg.Gauge("wormnet_source_queued", "Messages waiting in source queues.")
	c.gBlocked = c.reg.Gauge("wormnet_blocked_headers", "Blocked headers (>= 1 failed routing attempt).")
	c.gBusyVCs = c.reg.Gauge("wormnet_busy_vcs", "Occupied virtual channels.")
	c.gBusyLinks = c.reg.Gauge("wormnet_busy_links", "Physical channels with at least one busy VC.")
	c.gIFlags = c.reg.LabeledGauge("wormnet_flag_occupancy", "Detection flags currently set, by flag.", "flag", "i")
	c.gDTFlags = c.reg.LabeledGauge("wormnet_flag_occupancy", "Detection flags currently set, by flag.", "flag", "dt")
	c.gGFlags = c.reg.LabeledGauge("wormnet_flag_occupancy", "Detection flags currently set, by flag.", "flag", "g")
	c.gRecoveryDepth = c.reg.Gauge("wormnet_recovery_depth", "Messages currently undergoing recovery.")
	c.gOracleSet = c.reg.Gauge("wormnet_oracle_deadlocked", "Latest oracle deadlocked-set size.")
	c.gProbesInFlight = c.reg.Gauge("wormnet_probes_in_flight", "CMH probes currently traversing the fabric.")
	c.gNonemptyQueues = c.reg.Gauge("wormnet_nonempty_queues", "Nodes with a nonempty source queue.")
	c.gActiveLinks = c.reg.Gauge("wormnet_active_links", "Output links that carried a flit in the sampled cycle.")
	c.gWormsInFlight = c.reg.Gauge("wormnet_worms_in_flight", "Messages admitted into the network and not yet delivered or re-queued.")
	c.latency = c.reg.Histogram("wormnet_latency_cycles",
		"Generation-to-delivery latency of delivered messages.", ExpBounds(1<<14))
	c.detDelay = c.reg.Histogram("wormnet_detect_delay_cycles",
		"First failed routing attempt to detector mark.", ExpBounds(1<<12))
	c.detLat = c.reg.Histogram("wormnet_detect_latency_cycles",
		"Oracle-confirmed deadlock to detector mark.", ExpBounds(1<<12))
	c.gEpisodesOpen = c.reg.Gauge("wormnet_episodes_open", "Deadlock episodes currently in flight.")
	c.epMTTD = c.reg.Histogram("wormnet_episode_mttd_cycles",
		"Episode open (first oracle sighting) to first detector mark.", ExpBounds(1<<12))
	c.epMTTR = c.reg.Histogram("wormnet_episode_mttr_cycles",
		"First detector mark to episode close (last member drained).", ExpBounds(1<<14))
	return c
}

// Registry exposes the collector's registry (for the HTTP exporter, tests
// and sweep aggregation). Nil-safe; returns nil on a nil collector.
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
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
	c.detector = detector
	c.dims = dims
	c.reg.LabeledGauge("wormnet_info", "Static run information.", "detector", detector).Set(1)
	c.dimVCs = make([]*Gauge, dims)
	c.dimLinks = make([]*Gauge, dims)
	for d := 0; d < dims; d++ {
		c.dimVCs[d] = c.reg.LabeledGauge("wormnet_dim_busy_vcs",
			"Busy VCs on network channels, by dimension.", "dim", strconv.Itoa(d))
		c.dimLinks[d] = c.reg.LabeledGauge("wormnet_dim_busy_links",
			"Busy network channels, by dimension.", "dim", strconv.Itoa(d))
	}
	names := [3]string{"net", "inj", "del"}
	for i, n := range names {
		c.classVCs[i] = c.reg.LabeledGauge("wormnet_class_busy_vcs",
			"Busy VCs by physical-channel class.", "class", n)
	}
	c.scratch.DimVCs = make([]int32, dims)
	c.scratch.DimLinks = make([]int32, dims)
	for i := range c.ring {
		c.ring[i].DimVCs = make([]int32, 0, dims)
		c.ring[i].DimLinks = make([]int32, 0, dims)
	}
}

// Value returns event counter m's current value (0 on a nil receiver).
func (c *Collector) Value(m Metric) int64 {
	if c == nil {
		return 0
	}
	return c.counts[m].Value()
}

// ObserveLatency records one delivered message's generation-to-delivery
// latency. Nil-safe.
func (c *Collector) ObserveLatency(cycles int64) {
	if c == nil {
		return
	}
	c.latency.Observe(cycles)
}

// ObserveDetectDelay records one mark's first-failed-attempt-to-mark delay.
func (c *Collector) ObserveDetectDelay(cycles int64) {
	if c == nil {
		return
	}
	c.detDelay.Observe(cycles)
}

// ObserveDetectLatency records one mark's oracle-to-mark latency.
func (c *Collector) ObserveDetectLatency(cycles int64) {
	if c == nil {
		return
	}
	c.detLat.Observe(cycles)
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
		c.counts[MEpisodesTrue].Inc()
	} else {
		c.counts[MEpisodesFalse].Inc()
	}
	if mttd >= 0 {
		c.epMTTD.Observe(mttd)
	}
	if mttr >= 0 {
		c.epMTTR.Observe(mttr)
	}
}

// SetEpisodesOpen updates the episodes-in-flight gauge. Nil-safe.
func (c *Collector) SetEpisodesOpen(n int) {
	if c == nil {
		return
	}
	c.gEpisodesOpen.Set(int64(n))
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
		c.counts[m].v.Store(v)
	}
	if now < c.nextSample {
		return
	}
	c.nextSample = now + c.window
	c.takeSample(now, p)
}

// takeSample snapshots one Sample into the ring and mirrors its gauges
// into the registry. Runs on the engine goroutine; allocation-free once
// attached (scratch and ring slots are pre-sized).
func (c *Collector) takeSample(now int64, p Prober) {
	s := &c.scratch
	s.Cycle = now
	s.Generated = c.counts[MGenerated].Value()
	s.Injected = c.counts[MInjected].Value()
	s.Delivered = c.counts[MDelivered].Value()
	s.DeliveredFlit = c.counts[MDeliveredFlits].Value()
	s.MarkedTrue = c.counts[MMarkedTrue].Value()
	s.MarkedFalse = c.counts[MMarkedFalse].Value()
	s.Recovered = c.counts[MRecovered].Value()
	s.Reinjected = c.counts[MReinjected].Value()
	s.Queued, s.Blocked, s.BusyVCs, s.BusyLinks = 0, 0, 0, 0
	s.IFlags, s.DTFlags, s.GFlags = 0, 0, 0
	s.RecoveryDepth, s.OracleSet = 0, 0
	s.ProbesInFlight = 0
	s.NonemptyQueues, s.ActiveLinks, s.WormsInFlight = 0, 0, 0
	s.DimVCs = s.DimVCs[:c.dims]
	s.DimLinks = s.DimLinks[:c.dims]
	for i := range s.DimVCs {
		s.DimVCs[i] = 0
		s.DimLinks[i] = 0
	}
	s.EpisodesTrue = c.counts[MEpisodesTrue].Value()
	s.EpisodesFalse = c.counts[MEpisodesFalse].Value()
	s.MTTDSum, s.MTTDCount = c.epMTTD.Sum(), c.epMTTD.Count()
	s.MTTRSum, s.MTTRCount = c.epMTTR.Sum(), c.epMTTR.Count()
	s.EpisodesOpen = int32(c.gEpisodesOpen.Value())
	if p != nil {
		p.ProbeMetrics(s)
	}

	c.gQueued.Set(int64(s.Queued))
	c.gBlocked.Set(int64(s.Blocked))
	c.gBusyVCs.Set(int64(s.BusyVCs))
	c.gBusyLinks.Set(int64(s.BusyLinks))
	c.gIFlags.Set(int64(s.IFlags))
	c.gDTFlags.Set(int64(s.DTFlags))
	c.gGFlags.Set(int64(s.GFlags))
	c.gRecoveryDepth.Set(int64(s.RecoveryDepth))
	c.gOracleSet.Set(int64(s.OracleSet))
	c.gProbesInFlight.Set(int64(s.ProbesInFlight))
	c.gNonemptyQueues.Set(int64(s.NonemptyQueues))
	c.gActiveLinks.Set(int64(s.ActiveLinks))
	c.gWormsInFlight.Set(int64(s.WormsInFlight))
	for d := 0; d < c.dims && d < len(c.dimVCs); d++ {
		c.dimVCs[d].Set(int64(s.DimVCs[d]))
		c.dimLinks[d].Set(int64(s.DimLinks[d]))
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
	if c == nil || c.classVCs[0] == nil {
		return
	}
	c.classVCs[0].Set(int64(net))
	c.classVCs[1].Set(int64(inj))
	c.classVCs[2].Set(int64(del))
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

// seriesFields names the CSV columns / JSONL keys of the fixed Sample
// fields, in emission order.
var seriesFields = []string{
	"cycle", "generated", "injected", "delivered", "deliveredFlits",
	"markedTrue", "markedFalse", "recovered", "reinjected",
	"queued", "blocked", "busyVCs", "busyLinks",
	"iFlags", "dtFlags", "gFlags", "recoveryDepth", "oracleSet",
	"probesInFlight", "nonemptyQueues", "activeLinks", "wormsInFlight",
	"episodesTrue", "episodesFalse", "mttdSum", "mttdCount",
	"mttrSum", "mttrCount", "episodesOpen",
}

func (s *Sample) fixedValues() [29]int64 {
	return [29]int64{
		s.Cycle, s.Generated, s.Injected, s.Delivered, s.DeliveredFlit,
		s.MarkedTrue, s.MarkedFalse, s.Recovered, s.Reinjected,
		int64(s.Queued), int64(s.Blocked), int64(s.BusyVCs), int64(s.BusyLinks),
		int64(s.IFlags), int64(s.DTFlags), int64(s.GFlags),
		int64(s.RecoveryDepth), int64(s.OracleSet),
		int64(s.ProbesInFlight), int64(s.NonemptyQueues),
		int64(s.ActiveLinks), int64(s.WormsInFlight),
		s.EpisodesTrue, s.EpisodesFalse, s.MTTDSum, s.MTTDCount,
		s.MTTRSum, s.MTTRCount, int64(s.EpisodesOpen),
	}
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
// header row. Per-dimension columns are dimVCs0..N-1 and dimLinks0..N-1.
func (c *Collector) WriteSeriesCSV(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	for i, f := range seriesFields {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(f)
	}
	for d := 0; d < c.dims; d++ {
		fmt.Fprintf(bw, ",dimVCs%d", d)
	}
	for d := 0; d < c.dims; d++ {
		fmt.Fprintf(bw, ",dimLinks%d", d)
	}
	bw.WriteByte('\n')
	for _, s := range c.Samples(nil) {
		vals := s.fixedValues()
		for i, v := range vals {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatInt(v, 10))
		}
		for _, v := range s.DimVCs {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatInt(int64(v), 10))
		}
		for _, v := range s.DimLinks {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatInt(int64(v), 10))
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
		Detector: c.detector,
		Window:   c.window,
		Cycles:   c.counts[MCycles].Value(),
		Counters: make(map[string]int64, int(numMetrics)),
	}
	for m := Metric(0); m < numMetrics; m++ {
		spec := metricSpecs[m]
		key := spec.name
		if spec.labelKey != "" {
			key = fmt.Sprintf("%s{%s=%q}", spec.name, spec.labelKey, spec.labelVal)
		}
		st.Counters[key] = c.counts[m].Value()
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
