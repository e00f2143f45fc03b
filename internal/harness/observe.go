package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"wormnet/internal/forensics"
	"wormnet/internal/metrics"
	"wormnet/internal/sim"
	"wormnet/internal/trace"
)

// Observe bundles the per-run observation options shared by every sweep
// CLI (cmd/loadsweep, cmd/tables): flight-recorder trace dumps, metrics
// time-series dumps and deadlock incident reports. It travels as one
// value — through Sweep, Options, exp.Options and wormnet.TableOptions —
// and is the only code that attaches rails to a run (Attach) and writes
// their files (Rails).
//
// All observers are pure: attaching them never changes simulation output
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
	// (trace.DefaultCapacity when 0; Validate refuses a negative one).
	TraceLast int
	// SeriesDir, when non-empty, attaches a distinct metrics collector to
	// every run (collectors are single-run) and dumps its sampled time
	// series to SeriesDir/p<point>-r<rep>-<key>.series.jsonl for each run
	// that completed. The collectors of the sweep's runs are merged into
	// SeriesDir/aggregate.prom in the Prometheus text format. Runs loaded
	// from the journal carry no collector, so a resumed sweep writes no
	// aggregate — an existing one, from the invocation that ran them, is
	// left as it is — and says so on Progress.
	SeriesDir string
	// SeriesWindow is the sampling window in cycles
	// (metrics.DefaultWindow when 0; Validate refuses a negative one).
	SeriesWindow int64
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
	switch {
	case o.TraceLast < 0:
		return fmt.Errorf("-trace-last must be >= 0, got %d", o.TraceLast)
	case o.SeriesWindow < 0:
		return fmt.Errorf("-series-window must be >= 0, got %d", o.SeriesWindow)
	}
	if o.TraceLast != 0 && o.TraceDir == "" {
		return fmt.Errorf("-trace-last requires -trace-dir")
	}
	if o.SeriesWindow != 0 && o.SeriesDir == "" {
		return fmt.Errorf("-series-window requires -series-dir")
	}
	return nil
}

// WithSuffix returns a copy with suffix appended to each configured output
// directory, so a command that runs several sweeps (cmd/tables, one per
// table) keeps their dumps apart.
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

// prepare creates the configured output directories (and missing parents),
// so a sweep whose runs all stay healthy still leaves its (empty)
// directories behind.
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

// Rails are the observers attached to one run: at most one flight recorder,
// one metrics collector and one episode correlator. All three are
// single-owner, so every run — each replicate of a sweep point, or the one
// run of wormnet.Run — gets its own set from Attach.
type Rails struct {
	Trace     *trace.Recorder
	Metrics   *metrics.Collector
	Forensics *forensics.Correlator
}

// Attach builds one run's rails and wires them into cfg; it is the only
// place rails are put together. wantTrace, wantSeries and wantIncidents say
// which outputs the run is for (a sweep wants a rail when its directory is
// set, wormnet.Run when its path or address is); TraceLast and SeriesWindow
// size them. Forensics observes the trace stream, so it gets a
// ring-only recorder when trace output itself is off, and it feeds its
// episode metrics to the collector when there is one.
func (o Observe) Attach(cfg *sim.Config, wantTrace, wantSeries, wantIncidents bool) Rails {
	var r Rails
	if wantTrace || wantIncidents {
		r.Trace = trace.NewRecorder(o.TraceLast)
		cfg.Trace = r.Trace
	}
	if wantSeries {
		r.Metrics = metrics.NewCollector(metrics.Options{Window: o.SeriesWindow})
		cfg.Metrics = r.Metrics
	}
	if wantIncidents {
		r.Forensics = forensics.New(forensics.Options{Metrics: r.Metrics})
		r.Trace.SetObserver(r.Forensics.Observe)
	}
	return r
}

// Finish ends observation once the run is over: an episode still open is
// closed as unresolved (which also reaches the collector, so call it before
// WriteSeries).
func (r Rails) Finish() { r.Forensics.Finish() }

// DumpTrace writes the recorder's ring to path if the run failed or
// recorded a detection verdict; healthy, detection-free runs leave no file.
func (r Rails) DumpTrace(path string, failed bool) error {
	if !failed && !r.Trace.Contains(trace.KindDetect) {
		return nil
	}
	return WriteFile(path, r.Trace.Dump)
}

// WriteSeries writes the collector's sampled time series to path: CSV when
// the path ends in ".csv", JSONL otherwise.
func (r Rails) WriteSeries(path string) error {
	if strings.HasSuffix(path, ".csv") {
		return WriteFile(path, r.Metrics.WriteSeriesCSV)
	}
	return WriteFile(path, r.Metrics.WriteSeriesJSONL)
}

// WriteIncidents writes the correlator's incident report to path as JSONL.
func (r Rails) WriteIncidents(path string) error {
	return WriteFile(path, r.Forensics.WriteReport)
}

// WriteFile creates path (and its missing parent directories), hands the
// file to write and closes it, returning the first error of the three.
func WriteFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// flush writes one sweep run's dumps under the configured directories:
// the trace ring of a failed or detecting run, the incident report of a
// failed or episode-bearing run, the time series of a completed run.
func (o *Observe) flush(r Rails, point, rep int, key string, failed bool) error {
	base := fmt.Sprintf("p%03d-r%d-%s", point, rep, sanitizeKey(key))
	var err error
	if o.TraceDir != "" {
		err = r.DumpTrace(filepath.Join(o.TraceDir, base+".jsonl"), failed)
	}
	r.Finish()
	if o.ForensicsDir != "" && (failed || len(r.Forensics.Episodes()) > 0) {
		err = errors.Join(err, r.WriteIncidents(filepath.Join(o.ForensicsDir, base+".incidents.jsonl")))
	}
	if o.SeriesDir != "" && !failed {
		err = errors.Join(err, r.WriteSeries(filepath.Join(o.SeriesDir, base+".series.jsonl")))
	}
	return err
}

// Sweep bundles the execution flags shared by every sweep CLI — worker
// count, runs per point, checkpoint journal, progress — with the Observe
// flags, and validates them in one place.
type Sweep struct {
	Workers    int
	Replicates int
	Checkpoint string
	Resume     bool
	Quiet      bool
	Observe    Observe

	repeat string // name the command gives the runs-per-point flag
}

// AddFlags registers -workers, -checkpoint, -resume, -quiet, the
// runs-per-point flag under the name the command documents (-replicates or
// -repeats) and the Observe flags on fs. usage rewords individual flags, by
// name, for commands where they mean something narrower than the generic
// text (a journal path that is a prefix, flags that apply in one mode only).
func (s *Sweep) AddFlags(fs *flag.FlagSet, repeat string, usage map[string]string) {
	s.repeat = repeat
	fs.IntVar(&s.Workers, "workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	fs.IntVar(&s.Replicates, repeat, 1, "independently seeded runs per point, aggregated as mean±ci95")
	fs.StringVar(&s.Checkpoint, "checkpoint", "", "JSONL checkpoint journal path")
	fs.BoolVar(&s.Resume, "resume", false, "resume completed runs from the -checkpoint journal")
	fs.BoolVar(&s.Quiet, "quiet", false, "suppress progress output")
	s.Observe.AddFlags(fs)
	for name, text := range usage {
		fs.Lookup(name).Usage = text
	}
}

// Options validates the parsed flags and yields the harness options they
// describe (progress on stderr unless -quiet); the caller adds the seed.
func (s *Sweep) Options() (Options, error) {
	switch {
	case s.Workers < 0:
		return Options{}, fmt.Errorf("-workers must be >= 0, got %d", s.Workers)
	case s.Replicates < 1:
		return Options{}, fmt.Errorf("-%s must be >= 1, got %d", s.repeat, s.Replicates)
	case s.Resume && s.Checkpoint == "":
		return Options{}, fmt.Errorf("-resume requires -checkpoint")
	}
	if err := s.Observe.Validate(); err != nil {
		return Options{}, err
	}
	opt := Options{
		Workers:    s.Workers,
		Replicates: s.Replicates,
		Journal:    s.Checkpoint,
		Resume:     s.Resume,
		Observe:    s.Observe,
	}
	if !s.Quiet {
		opt.Progress = os.Stderr
	}
	return opt, nil
}
