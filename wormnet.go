// Package wormnet is a flit-level simulator of wormhole-switched k-ary
// n-cube networks with true fully adaptive routing, built to reproduce
//
//	P. López, J. M. Martínez, J. Duato,
//	"A Very Efficient Distributed Deadlock Detection Mechanism for
//	Wormhole Networks", HPCA 1998.
//
// The package exposes a small, stable configuration surface: pick a
// topology, a traffic workload (one of the paper's six destination patterns
// or the transpose and tornado extensions, injected by the paper's Bernoulli
// process), a deadlock detection mechanism (the paper's NDM, the earlier
// PDM, or crude timeouts) and a recovery style, then Run.
// The returned metrics include the paper's figure of merit — the percentage
// of messages detected as possibly deadlocked — with every detection
// classified as true or false by an omniscient deadlock oracle.
//
// RunPaperTable reproduces one of the paper's Tables 1-7, or the CMH
// extension Table 8. The cmd/tables tool runs the same experiments from the
// command line: its -table 0 runs the paper's seven tables, and Table 8
// runs only when named.
package wormnet

import (
	"fmt"
	"io"

	"wormnet/internal/detect"
	"wormnet/internal/exp"
	"wormnet/internal/harness"
	"wormnet/internal/metrics"
	"wormnet/internal/probe"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/sim"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
	"wormnet/internal/viz"
)

// Pattern names a message destination distribution (paper Section 4).
type Pattern string

// Destination distributions.
const (
	Uniform        Pattern = "uniform"
	Locality       Pattern = "locality"
	BitReversal    Pattern = "bit-reversal"
	PerfectShuffle Pattern = "perfect-shuffle"
	Butterfly      Pattern = "butterfly"
	HotSpot        Pattern = "hot-spot"
	// Transpose and Tornado extend the paper's workloads with two further
	// classic adversarial patterns.
	Transpose Pattern = "transpose"
	Tornado   Pattern = "tornado"
)

// Mechanism names a deadlock detection mechanism.
type Mechanism string

// Detection mechanisms.
const (
	// NDM is the paper's mechanism (Section 3).
	NDM Mechanism = "ndm"
	// PDM is the previous mechanism it improves on (Section 2).
	PDM Mechanism = "pdm"
	// SourceAge, SourceStall and HeaderBlock are the crude timeout
	// heuristics referenced in the introduction.
	SourceAge   Mechanism = "src-age"
	SourceStall Mechanism = "src-stall"
	HeaderBlock Mechanism = "hdr-block"
	// CMH is Chandy–Misra–Haas edge chasing: blocked headers launch probe
	// control messages along the wait-for graph, and a probe returning to a
	// channel held by its initiator proves a cycle. Unlike the router-local
	// mechanisms its control messages consume link bandwidth (see
	// internal/probe and the Probe* Config knobs).
	CMH Mechanism = "cmh"
	// NoDetection disables detection (and therefore recovery).
	NoDetection Mechanism = "none"
)

// ProbeTransport names how CMH probe flits share physical links with data.
type ProbeTransport string

// Probe transports.
const (
	// ProbeStealIdle moves probes only across links that carried no data
	// flit this cycle (the default).
	ProbeStealIdle ProbeTransport = "steal-idle"
	// ProbeControlVC models a dedicated control virtual channel: one probe
	// flit per link per cycle regardless of data traffic.
	ProbeControlVC ProbeTransport = "ctrl-vc"
)

// ProbeVictim names CMH's victim-selection policy.
type ProbeVictim string

// Probe victim policies.
const (
	// ProbeVictimLocal marks the probe's initiator (the default).
	ProbeVictimLocal ProbeVictim = "local"
	// ProbeVictimOldest marks the oldest message the probe visited.
	ProbeVictimOldest ProbeVictim = "oldest"
)

// Routing names a routing algorithm.
type Routing string

// Routing algorithms.
const (
	// Adaptive is the paper's true fully adaptive minimal routing: any
	// virtual channel of any profitable physical channel. Deadlock-prone;
	// pair it with detection + recovery.
	Adaptive Routing = "adaptive"
	// DOR is deterministic dimension-order routing with Dally-Seitz
	// virtual channel classes: deadlock-free, no detection needed.
	DOR Routing = "dor"
	// Duato is Duato's protocol: fully adaptive over the adaptive virtual
	// channels with a dimension-order escape path. Deadlock-free.
	Duato Routing = "duato"
)

// Recovery names a deadlock recovery style.
type Recovery string

// Recovery styles.
const (
	// Progressive absorbs the deadlocked message at the node holding its
	// header and re-injects it there (software-based recovery).
	Progressive Recovery = "progressive"
	// Regressive kills the deadlocked message and retries from the source
	// (abort-and-retry).
	Regressive Recovery = "regressive"
)

// Lengths describes the message length distribution. Set Fixed for a
// constant size, or Short/Long/PShort for the paper's bimodal "sl" mix.
type Lengths struct {
	Fixed  int
	Short  int
	Long   int
	PShort float64
}

// Fixed16 etc. are the paper's standard workloads.
var (
	Len16  = Lengths{Fixed: 16}
	Len64  = Lengths{Fixed: 64}
	Len256 = Lengths{Fixed: 256}
	LenSL  = Lengths{Short: 16, Long: 64, PShort: 0.6}
)

func (l Lengths) dist() (traffic.LengthDist, error) {
	if l.Fixed > 0 {
		return traffic.Fixed(l.Fixed), nil
	}
	if l.Short > 0 && l.Long > 0 {
		return traffic.Bimodal{Short: l.Short, Long: l.Long, PShort: l.PShort}, nil
	}
	return nil, fmt.Errorf("wormnet: empty Lengths")
}

// Config describes one simulation. The zero value is not runnable; start
// from DefaultConfig.
type Config struct {
	// K-ary N-cube topology (the paper evaluates K=8, N=3: 512 nodes).
	K, N int

	// Router microarchitecture: virtual channels per physical channel,
	// flit buffer depth per VC, injection/delivery ports per node.
	VirtualChannels int
	BufferFlits     int
	Ports           int

	// Workload.
	Pattern Pattern
	// LocalityRadius applies to the Locality pattern (default 2).
	LocalityRadius int
	// HotFraction applies to the HotSpot pattern: the share of traffic
	// destined for node 0 (default 5%).
	HotFraction float64
	Lengths     Lengths
	// Load is the offered traffic in flits/cycle/node, generated by the
	// paper's Bernoulli process.
	Load float64

	// Routing selects the routing algorithm (default: the paper's true
	// fully adaptive routing). The deadlock-free algorithms (DOR, Duato)
	// must run with Mechanism == NoDetection.
	Routing Routing

	// Detection mechanism and its threshold (t2 for NDM).
	Mechanism Mechanism
	Threshold int64
	// T1 is NDM's short threshold (default 1, as in the paper).
	T1 int64
	// SelectivePromotion enables the selective P->G re-arming variant the
	// paper mentions as future work (default: the paper's simple policy).
	SelectivePromotion bool

	// CMH-only knobs; ignored by the other mechanisms. Threshold doubles
	// as CMH's probe initiation delay. Zero values select the internal/probe
	// defaults (steal-idle transport, local victim, 64-hop cap).
	ProbeTransport ProbeTransport
	ProbeVictim    ProbeVictim
	ProbeMaxHops   int

	// Recovery style for marked messages.
	Recovery Recovery

	// InjectionLimit is the injection-limitation threshold (maximum busy
	// network output VCs that still admits a new message); negative
	// disables the mechanism.
	InjectionLimit int

	// Simulation phases in cycles, and the RNG seed.
	Warmup, Measure int64
	Seed            uint64

	// Shards is ignored: the engine is serial.
	//
	// Deprecated: Shards once split each cycle over worker goroutines. It
	// remains only because the frozen benchmark module (benchmark/) still
	// sets it; it goes when that module is next revised. Leave it zero.
	Shards int

	// OracleEvery > 0 additionally runs the global deadlock oracle every
	// so many cycles to measure actual deadlock frequency.
	OracleEvery int64

	// TracePath, when non-empty, enables the flight recorder (see
	// internal/trace) and names the JSONL file receiving events. With
	// TraceLast == 0 every event is streamed to the file as it happens;
	// with TraceLast > 0 only the most recent TraceLast events are kept in
	// a ring, written out only when the run marked at least one message
	// (or failed), so long healthy runs leave no file behind. Missing
	// parent directories are created.
	TracePath string
	TraceLast int

	// MetricsAddr, when non-empty, attaches the live metrics collector
	// (see internal/metrics) and serves it over HTTP at this address
	// ("host:port"; ":0" picks an ephemeral port) for the duration of the
	// run: Prometheus-text /metrics, a JSON /status snapshot, the sampled
	// time series at /series, and the runtime profiles at /debug/pprof.
	// Metrics are pure observation: results are identical with or without
	// them.
	MetricsAddr string
	// MetricsWindow is the collector's sampling window in cycles (default
	// 256). It also applies when SeriesPath alone enables the collector.
	MetricsWindow int64
	// SeriesPath, when non-empty, attaches the collector (with or without
	// MetricsAddr) and writes its sampled time series to this file when the
	// run finishes — JSONL by default, CSV when the path ends in ".csv".
	// Missing parent directories are created.
	SeriesPath string
	// MetricsReady, when non-nil, is called with the exporter's bound
	// address once it is listening (mainly useful with ":0").
	MetricsReady func(addr string)

	// ForensicsPath, when non-empty, attaches the episode correlator (see
	// internal/forensics) as an online trace observer and writes the
	// per-episode incident report (JSONL, one episode per line) to this
	// file when the run finishes — even when no episodes occurred, so a
	// sweep can distinguish "clean run" from "forensics off". Forensics
	// requires the flight recorder: if TracePath is unset a ring-only
	// recorder is attached internally (no trace file is produced).
	// Incident reports are a pure function of the trace event stream, so
	// they inherit its determinism contract: byte-identical for a fixed
	// seed.
	ForensicsPath string
}

// DefaultConfig returns the paper's baseline: 8-ary 3-cube, 3 VCs with
// 4-flit buffers, 4 ports, uniform 16-flit traffic at a moderate load, NDM
// with threshold 32, progressive recovery, injection limitation on.
func DefaultConfig() Config {
	return Config{
		K: 8, N: 3,
		VirtualChannels: 3,
		BufferFlits:     4,
		Ports:           4,
		Pattern:         Uniform,
		Routing:         Adaptive,
		LocalityRadius:  2,
		HotFraction:     0.05,
		Lengths:         Len16,
		Load:            0.3,
		Mechanism:       NDM,
		Threshold:       32,
		T1:              1,
		Recovery:        Progressive,
		InjectionLimit:  6,
		Warmup:          5_000,
		Measure:         30_000,
		Seed:            1,
	}
}

// Metrics are the measurements accumulated over the measurement window.
// See the stats package for field documentation; the most important are
// Marked / Delivered (the paper's detection percentage, via PctMarked),
// TrueMarked / FalseMarked, Throughput and AvgLatency.
type Metrics = stats.Counters

// Result of a simulation run.
type Result struct {
	Metrics
	// DetectorName describes the active mechanism, e.g. "ndm(t2=32)".
	DetectorName string
	// TotalCycles includes warm-up.
	TotalCycles int64
	// LatencyP50, LatencyP95 and LatencyP99 are generation-to-delivery
	// latency percentiles in cycles (approximate to within ~12%).
	LatencyP50, LatencyP95, LatencyP99 int64
	// DetectDelayP50 and DetectDelayP99 are percentiles of the detection
	// delay: cycles from a message's first failed routing attempt at its
	// final node until it was marked as deadlocked (0 when nothing was
	// marked). For NDM this hugs the configured threshold, the paper's
	// "deadlock is detected at once" once t2 expires.
	DetectDelayP50, DetectDelayP99 int64
	// DetectLatencyP50 and DetectLatencyP99 are percentiles of the
	// detection latency: cycles from the oracle first observing a message
	// in the deadlocked set until the mechanism marked it. Only populated
	// when OracleEvery > 0; it is the end-to-end "how long did the
	// hardware take to notice" metric the detection-delay histogram (which
	// starts at the message's own first failed attempt) cannot provide.
	DetectLatencyP50, DetectLatencyP99 int64
	// DetectLatencySamples counts the marks that contributed to the
	// detection-latency percentiles.
	DetectLatencySamples int64
}

func (c Config) patternFactory() (sim.PatternFactory, error) {
	switch c.Pattern {
	case Uniform, "":
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewUniform(t) }, nil
	case Locality:
		r := c.LocalityRadius
		if r == 0 {
			r = 2
		}
		if r < 1 {
			return nil, fmt.Errorf("wormnet: locality radius %d, want at least 1", r)
		}
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewLocality(t, r) }, nil
	case BitReversal:
		return c.bitPermutation(traffic.NewBitReversal)
	case PerfectShuffle:
		return c.bitPermutation(traffic.NewPerfectShuffle)
	case Butterfly:
		return c.bitPermutation(traffic.NewButterfly)
	case HotSpot:
		frac := c.HotFraction
		if frac == 0 {
			frac = 0.05
		}
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("wormnet: hot-spot fraction %g, want one in [0, 1]", frac)
		}
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewHotSpot(t, 0, frac) }, nil
	case Transpose:
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewTranspose(t) }, nil
	case Tornado:
		if c.K < 3 {
			return nil, fmt.Errorf("wormnet: tornado needs a radix of at least 3, got k=%d", c.K)
		}
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewTornado(t) }, nil
	default:
		return nil, fmt.Errorf("wormnet: unknown pattern %q", c.Pattern)
	}
}

// bitPermutation returns build if the network has the power-of-two node
// count the bit permutations need, which k^n is exactly when k is a power of
// two.
func (c Config) bitPermutation(build sim.PatternFactory) (sim.PatternFactory, error) {
	if c.K&(c.K-1) != 0 {
		return nil, fmt.Errorf("wormnet: %s needs a power-of-two radix, got k=%d", c.Pattern, c.K)
	}
	return build, nil
}

// mechanism describes the configured detector for sim.Mechanism.Factory,
// the one place mechanism names are resolved.
func (c Config) mechanism() (sim.Mechanism, error) {
	m := sim.Mechanism{Name: string(c.Mechanism), Threshold: c.Threshold, T1: c.T1}
	if m.Name == "" {
		m.Name = string(NDM)
	}
	if c.SelectivePromotion {
		m.Promotion = detect.PromoteWaiting
	}
	if c.Mechanism != CMH {
		return m, nil
	}
	m.Probe.MaxHops = int32(c.ProbeMaxHops)
	switch c.ProbeTransport {
	case ProbeStealIdle, "":
		m.Probe.Transport = probe.TransportStealIdle
	case ProbeControlVC:
		m.Probe.Transport = probe.TransportControlVC
	default:
		return m, fmt.Errorf("wormnet: unknown probe transport %q", c.ProbeTransport)
	}
	switch c.ProbeVictim {
	case ProbeVictimLocal, "":
		m.Probe.Victim = probe.VictimLocal
	case ProbeVictimOldest:
		m.Probe.Victim = probe.VictimOldest
	default:
		return m, fmt.Errorf("wormnet: unknown probe victim %q", c.ProbeVictim)
	}
	return m, nil
}

// SimConfig expands the public configuration into the internal simulation
// config consumed by the sim engine and the sweep harness
// (internal/harness). Tools inside this module use it to build harness
// points from the same configuration surface Run accepts.
func (c Config) SimConfig() (sim.Config, error) {
	sc := sim.DefaultConfig()
	if err := topology.Validate(c.K, c.N); err != nil {
		return sc, fmt.Errorf("wormnet: %w", err)
	}
	sc.K, sc.N = c.K, c.N
	sc.Router = router.Config{
		VCsPerLink: c.VirtualChannels,
		BufFlits:   c.BufferFlits,
		InjPorts:   c.Ports,
		DelPorts:   c.Ports,
	}
	pat, err := c.patternFactory()
	if err != nil {
		return sc, err
	}
	sc.Pattern = pat
	dist, err := c.Lengths.dist()
	if err != nil {
		return sc, err
	}
	sc.Lengths = dist
	sc.Load = c.Load
	if c.Routing != "" {
		alg, ok := routing.ByName(string(c.Routing))
		if !ok {
			return sc, fmt.Errorf("wormnet: unknown routing %q", c.Routing)
		}
		sc.Routing = alg
	}
	mech, err := c.mechanism()
	if err != nil {
		return sc, err
	}
	if inputs := 2*c.N + c.Ports; mech.Name == string(NDM) && inputs > detect.NDMMaxInputs {
		return sc, fmt.Errorf("wormnet: ndm monitors at most %d input channels per router, %d-cube routers with %d ports have %d",
			detect.NDMMaxInputs, c.N, c.Ports, inputs)
	}
	if sc.Detector, err = mech.Factory(); err != nil {
		return sc, fmt.Errorf("wormnet: %w", err)
	}
	switch c.Recovery {
	case Progressive, "":
		sc.Recovery = recovery.Progressive
	case Regressive:
		sc.Recovery = recovery.Regressive
	default:
		return sc, fmt.Errorf("wormnet: unknown recovery %q", c.Recovery)
	}
	sc.InjectionLimit = c.InjectionLimit
	sc.Warmup, sc.Measure = c.Warmup, c.Measure
	sc.OracleEvery = c.OracleEvery
	sc.Seed = c.Seed
	return sc, nil
}

// ResultFromSim converts a raw engine result into the public Result,
// deriving the reported latency and detection-delay percentiles.
func ResultFromSim(r *sim.Result) *Result {
	res := &Result{
		Metrics:        r.Counters,
		DetectorName:   r.Detector,
		TotalCycles:    r.TotalCycles,
		LatencyP50:     r.LatencyHist.Quantile(0.50),
		LatencyP95:     r.LatencyHist.Quantile(0.95),
		LatencyP99:     r.LatencyHist.Quantile(0.99),
		DetectDelayP50: r.DetectDelayHist.Quantile(0.50),
		DetectDelayP99: r.DetectDelayHist.Quantile(0.99),
	}
	if h := r.DetectLatencyHist; h != nil && h.Count() > 0 {
		res.DetectLatencyP50 = h.Quantile(0.50)
		res.DetectLatencyP99 = h.Quantile(0.99)
		res.DetectLatencySamples = h.Count()
	}
	return res
}

// Run executes the simulation described by cfg and returns its metrics.
func Run(cfg Config) (*Result, error) {
	sc, err := cfg.SimConfig()
	if err != nil {
		return nil, err
	}
	// The rails come from the same attach path the sweep harness uses.
	obs := harness.Observe{TraceLast: cfg.TraceLast, SeriesWindow: cfg.MetricsWindow}
	rails := obs.Attach(&sc, cfg.TracePath != "",
		cfg.MetricsAddr != "" || cfg.SeriesPath != "", cfg.ForensicsPath != "")
	simulate := func() (*sim.Result, error) {
		eng, err := sim.New(sc)
		if err != nil {
			return nil, err
		}
		if cfg.MetricsAddr != "" {
			srv, err := metrics.Serve(cfg.MetricsAddr, rails.Metrics)
			if err != nil {
				return nil, fmt.Errorf("wormnet: metrics exporter: %w", err)
			}
			defer srv.Close()
			if cfg.MetricsReady != nil {
				cfg.MetricsReady(srv.Addr())
			}
		}
		return eng.Run()
	}
	var r *sim.Result
	var runErr, traceErr error
	switch {
	case cfg.TracePath == "":
		r, runErr = simulate()
	case cfg.TraceLast <= 0:
		// Streaming mode: every event goes to the file as it happens.
		traceErr = harness.WriteFile(cfg.TracePath, func(w io.Writer) error {
			rails.Trace.SetSink(w)
			r, runErr = simulate()
			return rails.Trace.Flush()
		})
	default:
		// Ring mode: dumped only when something went wrong or a detection
		// fired, so healthy runs stay file-free.
		r, runErr = simulate()
		traceErr = rails.DumpTrace(cfg.TracePath, runErr != nil)
	}
	rails.Finish()
	if runErr != nil {
		return nil, runErr
	}
	if traceErr != nil {
		return nil, fmt.Errorf("wormnet: writing trace %s: %w", cfg.TracePath, traceErr)
	}
	if cfg.ForensicsPath != "" {
		if err := rails.WriteIncidents(cfg.ForensicsPath); err != nil {
			return nil, fmt.Errorf("wormnet: writing incidents %s: %w", cfg.ForensicsPath, err)
		}
	}
	if cfg.SeriesPath != "" {
		if err := rails.WriteSeries(cfg.SeriesPath); err != nil {
			return nil, fmt.Errorf("wormnet: writing series %s: %w", cfg.SeriesPath, err)
		}
	}
	return ResultFromSim(r), nil
}

// Observe runs the simulation like Run, additionally invoking fn every
// `every` cycles with a one-line fabric occupancy summary and, for 2-D
// networks, an ASCII utilization heatmap. Useful for watching congestion
// and blocked-message trees build up.
func Observe(cfg Config, every int64, fn func(cycle int64, summary, heatmap string)) (*Result, error) {
	if every <= 0 {
		return nil, fmt.Errorf("wormnet: Observe requires every > 0")
	}
	sc, err := cfg.SimConfig()
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(sc)
	if err != nil {
		return nil, err
	}
	for total := sc.Warmup + sc.Measure; eng.Now() < total; {
		if err := eng.Step(); err != nil {
			return nil, err
		}
		if eng.Now()%every == 0 {
			fn(eng.Now(), viz.Summarize(eng.Fabric()).String(), viz.Heatmap(eng.Fabric()))
		}
	}
	// Every cycle has been stepped, so Run only assembles the result.
	r, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return ResultFromSim(r), nil
}

// TableOptions configure a paper-table reproduction.
type TableOptions struct {
	// K and N select the network (default: the paper's 8-ary 3-cube).
	K, N int
	// Warmup and Measure are per-cell simulation phases in cycles.
	Warmup, Measure int64
	// Seed seeds the sweep.
	Seed uint64
	// RelativeRates rescales the paper's injection rates to the measured
	// saturation throughput of the configured network; use it whenever
	// K and N differ from 8 and 3.
	RelativeRates bool
	// SelectivePromotion runs NDM with the selective P->G variant.
	SelectivePromotion bool
	// Workers bounds concurrent cell simulations and, with RelativeRates,
	// concurrent saturation probes; 0 means GOMAXPROCS. Results, the
	// saturation estimate included, are identical for every worker count.
	Workers int
	// Repeats runs each cell this many times with independently derived
	// seeds and reports mean±ci95; 0 or 1 means a single run.
	Repeats int
	// Journal, if non-empty, is a JSONL checkpoint file recording each
	// completed (cell, repeat) run; with Resume set, runs already in the
	// journal are reused instead of re-simulated.
	Journal string
	Resume  bool
	// Progress, if non-nil, receives (done, total) after each cell.
	Progress func(done, total int)
	// Observe configures the per-cell trace, metrics-series and incident
	// dumps (see harness.Observe).
	Observe harness.Observe
}

// TableResult is a measured paper table; render it with Render.
type TableResult struct {
	inner *exp.Result
}

// Render writes the table in the paper's layout.
func (t *TableResult) Render(w io.Writer) {
	t.inner.Format(w)
}

// RenderJSON writes the table as JSON (reloadable with the exp package's
// DecodeJSON).
func (t *TableResult) RenderJSON(w io.Writer) error {
	return t.inner.EncodeJSON(w)
}

// WorstAtThreshold returns the largest detection percentage across the
// table's cells at the given threshold.
func (t *TableResult) WorstAtThreshold(th int64) (float64, bool) {
	return t.inner.SummaryRow(th)
}

// Pct returns the measured percentage for (threshold, rate index, size key).
func (t *TableResult) Pct(th int64, rateIdx int, size string) (float64, bool) {
	c, ok := t.inner.Cell(th, rateIdx, size)
	return c.Pct, ok
}

// RunPaperTable reproduces table id: one of the paper's Tables 1-7, or 8,
// the CMH extension.
func RunPaperTable(id int, opt TableOptions) (*TableResult, error) {
	tbl, err := exp.PaperTable(id)
	if err != nil {
		return nil, err
	}
	eo := exp.DefaultOptions()
	if opt.K != 0 {
		eo.K = opt.K
	}
	if opt.N != 0 {
		eo.N = opt.N
	}
	if opt.Warmup != 0 {
		eo.Warmup = opt.Warmup
	}
	if opt.Measure != 0 {
		eo.Measure = opt.Measure
	}
	if opt.Seed != 0 {
		eo.Seed = opt.Seed
	}
	eo.RelativeRates = opt.RelativeRates
	if opt.SelectivePromotion {
		eo.Promotion = detect.PromoteWaiting
	}
	eo.Workers = opt.Workers
	eo.Repeats = opt.Repeats
	eo.Journal = opt.Journal
	eo.Resume = opt.Resume
	eo.Progress = opt.Progress
	eo.Observe = opt.Observe
	res, err := exp.Run(tbl, eo)
	if err != nil {
		return nil, err
	}
	return &TableResult{inner: res}, nil
}
