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
	"cmp"
	"fmt"
	"io"

	"wormnet/internal/exp"
	"wormnet/internal/harness"
	"wormnet/internal/metrics"
	"wormnet/internal/sim"
	"wormnet/internal/spec"
	"wormnet/internal/stats"
	"wormnet/internal/viz"
)

// The run vocabulary lives in internal/spec, the one description every
// command and table shares, which documents each name; these re-export it.
type (
	Pattern        = spec.Pattern
	Mechanism      = spec.Mechanism
	ProbeTransport = spec.ProbeTransport
	ProbeVictim    = spec.ProbeVictim
	Routing        = spec.Routing
	Recovery       = spec.Recovery
	Lengths        = spec.Lengths
)

// Destination patterns, detection mechanisms, CMH probe transports and
// victim policies, routing algorithms and recovery styles.
const (
	Uniform        = spec.Uniform
	Locality       = spec.Locality
	BitReversal    = spec.BitReversal
	PerfectShuffle = spec.PerfectShuffle
	Butterfly      = spec.Butterfly
	HotSpot        = spec.HotSpot
	Transpose      = spec.Transpose
	Tornado        = spec.Tornado

	NDM         = spec.NDM
	PDM         = spec.PDM
	SourceAge   = spec.SourceAge
	SourceStall = spec.SourceStall
	HeaderBlock = spec.HeaderBlock
	CMH         = spec.CMH
	NoDetection = spec.NoDetection

	ProbeStealIdle    = spec.ProbeStealIdle
	ProbeControlVC    = spec.ProbeControlVC
	ProbeVictimLocal  = spec.ProbeVictimLocal
	ProbeVictimOldest = spec.ProbeVictimOldest

	Adaptive    = spec.Adaptive
	DOR         = spec.DOR
	Duato       = spec.Duato
	Progressive = spec.Progressive
	Regressive  = spec.Regressive
)

// Len16 etc. are the paper's standard message lengths.
var Len16, Len64, Len256, LenSL = spec.Len16, spec.Len64, spec.Len256, spec.LenSL

// Config describes one simulation: the run (spec.Run, whose fields and
// Validate, SimConfig and AddFlags methods it promotes) plus the observation
// rails. The zero value is not runnable; start from DefaultConfig.
type Config struct {
	spec.Run

	// Shards is ignored: the engine is serial.
	//
	// Deprecated: Shards once split each cycle over worker goroutines. It
	// remains only because the frozen benchmark module (benchmark/) still
	// sets it; it goes when that module is next revised. Leave it zero.
	Shards int

	// TracePath, when non-empty, enables the flight recorder (see
	// internal/trace) and names the JSONL file receiving events. With
	// TraceLast == 0 every event is streamed to the file as it happens;
	// with TraceLast > 0 only the most recent TraceLast events are kept in
	// a ring, written out only when the run marked at least one message
	// (or failed), so long healthy runs leave no file behind. Run refuses
	// a negative TraceLast. Missing parent directories are created.
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
	// MetricsWindow is the collector's sampling window in cycles (0 selects
	// 256; Run refuses a negative window). It also applies when SeriesPath
	// alone enables the collector.
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

// DefaultConfig returns the paper's baseline run (spec.Default: the 8-ary
// 3-cube, NDM with threshold 32) with no observation rails.
func DefaultConfig() Config {
	return Config{Run: spec.Default()}
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
	switch {
	case cfg.TraceLast < 0:
		return nil, fmt.Errorf("wormnet: TraceLast must be >= 0, got %d", cfg.TraceLast)
	case cfg.MetricsWindow < 0:
		return nil, fmt.Errorf("wormnet: MetricsWindow must be >= 0, got %d", cfg.MetricsWindow)
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
	eo.K, eo.N = cmp.Or(opt.K, eo.K), cmp.Or(opt.N, eo.N)
	eo.Warmup, eo.Measure = cmp.Or(opt.Warmup, eo.Warmup), cmp.Or(opt.Measure, eo.Measure)
	eo.Seed = cmp.Or(opt.Seed, eo.Seed)
	eo.RelativeRates = opt.RelativeRates
	eo.SelectivePromotion = opt.SelectivePromotion
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
