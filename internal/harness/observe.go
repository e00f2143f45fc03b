package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"wormnet/internal/forensics"
	"wormnet/internal/metrics"
	"wormnet/internal/sim"
	"wormnet/internal/trace"
)

// Observe bundles the per-run observation options shared by every sweep
// CLI (cmd/loadsweep, cmd/compare, cmd/tables): flight-recorder trace
// dumps and metrics time-series dumps. Embedding it in Options (and in
// exp.Options) replaces the flag definitions, validation and per-run
// recorder construction that used to be copied across the commands.
//
// Both observers are pure: attaching them never changes simulation output
// (CI holds a fixed-seed sweep to byte-identity with them on and off).
// Output directories are created on demand, including missing parents.
type Observe struct {
	// TraceDir, when non-empty, attaches a distinct flight recorder to
	// every run (recorders are single-owner, so sharing one across the
	// worker pool would race) and dumps its ring to
	// TraceDir/p<point>-r<rep>-<key>.jsonl for each run that failed or
	// recorded a detection verdict. Healthy, detection-free runs leave no
	// file.
	TraceDir string
	// TraceLast bounds each run's ring to the most recent TraceLast events
	// (trace.DefaultCapacity when <= 0).
	TraceLast int
	// SeriesDir, when non-empty, attaches a distinct metrics collector to
	// every run (collectors are single-run) and dumps its sampled time
	// series to SeriesDir/p<point>-r<rep>-<key>.series.jsonl for each run
	// that completed. The per-run registries of the runs executed in this
	// invocation (journal-loaded runs carry no collector) are merged into
	// SeriesDir/aggregate.prom in the Prometheus text format.
	SeriesDir string
	// SeriesWindow is the sampling window in cycles
	// (metrics.DefaultWindow when <= 0).
	SeriesWindow int64
	// SeriesRing bounds each run's sample ring (metrics.DefaultRing
	// when <= 0).
	SeriesRing int
	// ForensicsDir, when non-empty, attaches an episode correlator to every
	// run (as an observer on a per-run flight recorder, attached implicitly
	// if TraceDir is off) and dumps the per-episode incident report to
	// ForensicsDir/p<point>-r<rep>-<key>.incidents.jsonl for each run that
	// failed or reconstructed at least one episode. Clean runs leave no
	// file.
	ForensicsDir string
}

// AddFlags registers the standard observation flags (-trace-dir,
// -trace-last, -series-dir, -series-window, -forensics-dir) on fs,
// populating o.
func (o *Observe) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.TraceDir, "trace-dir", "",
		"dump per-run flight-recorder traces for failed/detecting runs into this directory")
	fs.IntVar(&o.TraceLast, "trace-last", 0,
		"per-run flight-recorder ring capacity (default 4096; requires -trace-dir)")
	fs.StringVar(&o.SeriesDir, "series-dir", "",
		"dump per-run metrics time series and a sweep-aggregate registry into this directory")
	fs.Int64Var(&o.SeriesWindow, "series-window", 0,
		"metrics sampling window in cycles (default 256; requires -series-dir)")
	fs.StringVar(&o.ForensicsDir, "forensics-dir", "",
		"dump per-run deadlock incident reports for failed/episode-bearing runs into this directory")
}

// Validate rejects option combinations AddFlags can produce that make no
// sense on their own.
func (o *Observe) Validate() error {
	if o.TraceLast != 0 && o.TraceDir == "" {
		return fmt.Errorf("-trace-last requires -trace-dir")
	}
	if o.SeriesWindow != 0 && o.SeriesDir == "" {
		return fmt.Errorf("-series-window requires -series-dir")
	}
	return nil
}

// WithSuffix returns a copy with suffix appended to each configured output
// directory, so commands that run several sweeps (compare's -pdm/-ndm
// tables, tables' per-table runs) keep their dumps apart.
func (o Observe) WithSuffix(suffix string) Observe {
	if o.TraceDir != "" {
		o.TraceDir += suffix
	}
	if o.SeriesDir != "" {
		o.SeriesDir += suffix
	}
	if o.ForensicsDir != "" {
		o.ForensicsDir += suffix
	}
	return o
}

// prepare creates the configured output directories (and missing parents).
func (o *Observe) prepare() error {
	for _, dir := range []string{o.TraceDir, o.SeriesDir, o.ForensicsDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("harness: observation dir: %w", err)
		}
	}
	return nil
}

// attach builds this run's observers and wires them into cfg. Each run gets
// its own recorder and collector: Point.Config is shared across replicates
// and both observers are single-owner.
func (o *Observe) attach(cfg *sim.Config) (*trace.Recorder, *metrics.Collector, *forensics.Correlator) {
	var rec *trace.Recorder
	if o.TraceDir != "" {
		rec = trace.NewRecorder(o.TraceLast)
		cfg.Trace = rec
	}
	var mc *metrics.Collector
	if o.SeriesDir != "" {
		mc = metrics.NewCollector(metrics.Options{Window: o.SeriesWindow, Ring: o.SeriesRing})
		cfg.Metrics = mc
	}
	var fc *forensics.Correlator
	if o.ForensicsDir != "" {
		if rec == nil {
			// The correlator observes the trace stream; give it a ring-only
			// recorder when trace dumps themselves are off.
			rec = trace.NewRecorder(o.TraceLast)
			cfg.Trace = rec
		}
		fc = forensics.New(forensics.Options{Metrics: mc})
		rec.SetObserver(fc.Observe)
	}
	return rec, mc, fc
}

// dumpSeries writes one completed run's sampled time series to its per-run
// file.
func dumpSeries(dir string, point, rep int, key string, mc *metrics.Collector) error {
	name := fmt.Sprintf("p%03d-r%d-%s.series.jsonl", point, rep, sanitizeKey(key))
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	err = mc.WriteSeriesJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// dumpForensics writes one run's incident report to its per-run file.
func dumpForensics(dir string, point, rep int, key string, fc *forensics.Correlator) error {
	name := fmt.Sprintf("p%03d-r%d-%s.incidents.jsonl", point, rep, sanitizeKey(key))
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	err = fc.WriteReport(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeAggregate writes the sweep's merged registry in the Prometheus text
// format.
func writeAggregate(dir string, agg *metrics.Registry) error {
	f, err := os.Create(filepath.Join(dir, "aggregate.prom"))
	if err != nil {
		return err
	}
	err = agg.WritePrometheus(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
