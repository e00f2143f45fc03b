// Package harness schedules sweeps of independent simulation runs across a
// bounded pool of worker goroutines, with deterministic seeding, a
// checkpoint journal for interrupt/resume, per-worker panic isolation and
// replicate aggregation.
//
// The experiment CLIs (cmd/loadsweep, and cmd/tables directly for -detlat
// and via internal/exp for the paper tables) all expand their sweep
// specification into a flat list of Points — one fully described
// sim.Config per grid coordinate — and hand it to Run. The harness guarantees:
//
//   - Determinism. Run (point p, replicate r) simulates with seed
//     SeedFunc(p, r) — by default rng.Derive(BaseSeed, p, r) — which is a
//     pure function of the sweep parameters. Results are keyed by (p, r),
//     never by completion order, so a sweep on 8 workers is bit-identical
//     to the same sweep on 1 worker, and to any re-run or resumed run.
//   - Fault tolerance. A run that panics or returns an error fails only its
//     own (point, replicate): the failure is recorded (and journaled) and
//     the sweep continues.
//   - Checkpointing. With Options.Journal set, every finished run is
//     appended to a JSONL journal with the run's description (the engine's
//     configuration fingerprint); with Options.Resume, journaled runs are
//     loaded instead of re-executed, so an interrupted sweep continues from
//     where it was killed, and a journal of other runs is refused.
package harness

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"wormnet/internal/metrics"
	"wormnet/internal/rng"
	"wormnet/internal/sim"
	"wormnet/internal/stats"
)

// Point is one coordinate of a sweep: a stable identifying key plus a fully
// specified simulation. The harness overrides Config.Seed per replicate;
// everything else is taken as-is. Configs may share factory closures — they
// must be pure constructors, which all of this module's are.
type Point struct {
	Key    string
	Config sim.Config
}

// Options control sweep execution. The zero value runs serially, one
// replicate per point, seeded from base seed 0, with no journal and no
// progress output.
type Options struct {
	// Workers bounds the number of concurrently running simulations.
	// Values < 1 select GOMAXPROCS.
	Workers int
	// Replicates is the number of independently seeded runs per point
	// (values < 1 mean 1).
	Replicates int
	// BaseSeed is the sweep's base seed; per-run seeds derive from it.
	BaseSeed uint64
	// SeedFunc overrides the per-run seed derivation. The default is
	// rng.Derive(BaseSeed, point, rep). Override only to preserve a legacy
	// derivation; the function must be pure.
	SeedFunc func(point, rep int) uint64
	// Journal is the path of the JSONL checkpoint journal ("" disables
	// checkpointing). Without Resume an existing journal is overwritten.
	Journal string
	// Resume loads completed runs from Journal instead of re-executing
	// them. A missing journal file starts a fresh sweep. Journaled
	// failures are kept as failures, not retried. A journal whose runs are
	// not this sweep's (another point count, replicate count, base seed,
	// point key or run description) is refused.
	Resume bool
	// Progress, when non-nil, receives one-line progress reports
	// (points done/total, runs done/total, ETA, worker utilization).
	Progress io.Writer
	// OnPointDone, when non-nil, is called — serialized, from the
	// collector — each time all replicates of a point have finished, with
	// the number of finished points and the total.
	OnPointDone func(done, total int)
	// Observe configures per-run flight-recorder and metrics-series dumps
	// (shared with the sweep CLIs; see its field docs).
	Observe
	// Run overrides the run function (default sim.Run), mainly for tests.
	Run func(key string, cfg sim.Config) (*sim.Result, error)
}

// PointResult collects the outcome of all replicates of one point. Runs and
// Errs are indexed by replicate: a nil run with a non-empty error string is
// a failed replicate.
type PointResult struct {
	Index int
	Key   string
	Runs  []*sim.Result
	Errs  []string
}

// OK reports whether every replicate completed.
func (p *PointResult) OK() bool {
	for _, e := range p.Errs {
		if e != "" {
			return false
		}
	}
	return true
}

// Err returns the first recorded failure, or "".
func (p *PointResult) Err() string {
	for _, e := range p.Errs {
		if e != "" {
			return e
		}
	}
	return ""
}

// Completed returns the successful runs in replicate order.
func (p *PointResult) Completed() []*sim.Result {
	var out []*sim.Result
	for _, r := range p.Runs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Metric summarizes f over the successful replicates, in replicate order,
// so the summary is deterministic for a given set of completed runs.
func (p *PointResult) Metric(f func(*sim.Result) float64) stats.Summary {
	var vals []float64
	for _, r := range p.Runs {
		if r != nil {
			vals = append(vals, f(r))
		}
	}
	return stats.Summarize(vals)
}

// MergedLatency merges the latency histograms of all successful replicates.
func (p *PointResult) MergedLatency() *stats.Histogram {
	return p.merged(func(r *sim.Result) *stats.Histogram { return r.LatencyHist })
}

// MergedDetectLatency merges the oracle-to-detection latency histograms of
// all successful replicates (empty unless the runs set OracleEvery > 0).
func (p *PointResult) MergedDetectLatency() *stats.Histogram {
	return p.merged(func(r *sim.Result) *stats.Histogram { return r.DetectLatencyHist })
}

func (p *PointResult) merged(pick func(*sim.Result) *stats.Histogram) *stats.Histogram {
	out := stats.NewHistogram(1.25)
	for _, r := range p.Runs {
		if r == nil {
			continue
		}
		if h := pick(r); h != nil {
			out.Merge(h)
		}
	}
	return out
}

// job identifies one unit of work; outcome is its completion message.
type job struct {
	point, rep int
	seed       uint64
}

type outcome struct {
	job
	res  *sim.Result
	err  error
	mc   *metrics.Collector
	desc string // the run's description, journaled sweeps only
}

// Run executes every (point, replicate) of the sweep and returns one
// PointResult per point, in point order. It returns an error only for
// harness-level failures (bad options, unusable journal); failures of
// individual runs are recorded in the PointResults.
func Run(points []Point, opt Options) ([]PointResult, error) {
	if len(points) == 0 {
		return nil, errors.New("harness: empty sweep")
	}
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	replicates := opt.Replicates
	if replicates < 1 {
		replicates = 1
	}
	seedFor := opt.SeedFunc
	if seedFor == nil {
		base := opt.BaseSeed
		seedFor = func(point, rep int) uint64 {
			return rng.Derive(base, uint64(point), uint64(rep))
		}
	}
	run := opt.Run
	if run == nil {
		run = func(_ string, cfg sim.Config) (*sim.Result, error) { return sim.Run(cfg) }
	}
	if err := opt.Observe.prepare(); err != nil {
		return nil, err
	}

	results := make([]PointResult, len(points))
	remaining := make([]int, len(points)) // replicates still to finish, per point
	for i, p := range points {
		results[i] = PointResult{
			Index: i,
			Key:   p.Key,
			Runs:  make([]*sim.Result, replicates),
			Errs:  make([]string, replicates),
		}
		remaining[i] = replicates
	}

	// Checkpoint journal: preload on resume, then open for appending.
	hdr := header{Journal: journalMagic, Version: journalVersion,
		Points: len(points), Replicates: replicates, BaseSeed: opt.BaseSeed}
	loaded := map[[2]int]bool{}
	var journalLen int64
	if opt.Journal != "" && opt.Resume {
		recs, validLen, err := readJournal(opt.Journal, hdr)
		if err != nil {
			return nil, err
		}
		journalLen = validLen
		for _, rec := range recs {
			if rec.Point < 0 || rec.Point >= len(points) || rec.Rep < 0 || rec.Rep >= replicates {
				return nil, fmt.Errorf("harness: journal record (%d,%d) outside sweep", rec.Point, rec.Rep)
			}
			if rec.Key != points[rec.Point].Key {
				return nil, fmt.Errorf("harness: journal point %d is %q, sweep has %q (spec changed?)",
					rec.Point, rec.Key, points[rec.Point].Key)
			}
			if want := seedFor(rec.Point, rec.Rep); rec.Seed != want {
				return nil, fmt.Errorf("harness: journal run (%d,%d) used seed %d, sweep derives %d (seed changed?)",
					rec.Point, rec.Rep, rec.Seed, want)
			}
			if loaded[[2]int{rec.Point, rec.Rep}] {
				continue // duplicate record; first wins
			}
			if want := describe(points[rec.Point].Config, rec.Seed); rec.Run != want {
				return nil, fmt.Errorf("harness: journal run (%d,%d) was %q; this sweep's is %q (configuration changed?)",
					rec.Point, rec.Rep, rec.Run, want)
			}
			loaded[[2]int{rec.Point, rec.Rep}] = true
			results[rec.Point].Runs[rec.Rep] = rec.Result
			results[rec.Point].Errs[rec.Rep] = rec.Error
			remaining[rec.Point]--
		}
	}
	var journal *journalWriter
	if opt.Journal != "" {
		var err error
		journal, err = openJournal(opt.Journal, opt.Resume && journalLen > 0, journalLen, hdr)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	// Jobs not satisfied by the journal, in deterministic order.
	var jobs []job
	for pi := range points {
		for rep := 0; rep < replicates; rep++ {
			if !loaded[[2]int{pi, rep}] {
				jobs = append(jobs, job{point: pi, rep: rep, seed: seedFor(pi, rep)})
			}
		}
	}
	pointsDone := 0
	for pi := range points {
		if remaining[pi] == 0 {
			pointsDone++
		}
	}

	prog := newProgress(opt.Progress, len(points), len(points)*replicates, len(jobs))
	prog.report(pointsDone, len(loaded), 0, workers, false)

	// agg is the aggregate of the runs merged so far: an unattached
	// collector, nil (an empty aggregate.prom) until the first merge.
	var agg *metrics.Collector

	if len(jobs) > 0 {
		jobCh := make(chan job)
		outCh := make(chan outcome)
		var busy atomic.Int32
		var obsErrOnce sync.Once
		var obsErr error
		for w := 0; w < workers; w++ {
			go func() {
				for j := range jobCh {
					busy.Add(1)
					cfg := points[j.point].Config
					cfg.Seed = j.seed
					var desc string
					if opt.Journal != "" {
						desc = describe(cfg, j.seed)
					}
					rails := opt.Observe.Attach(&cfg, opt.TraceDir != "", opt.SeriesDir != "", opt.ForensicsDir != "")
					res, err := safeRun(run, points[j.point].Key, cfg)
					if oerr := opt.Observe.flush(rails, j.point, j.rep, points[j.point].Key, err != nil); oerr != nil {
						obsErrOnce.Do(func() { obsErr = oerr })
					}
					busy.Add(-1)
					outCh <- outcome{job: j, res: res, err: err, mc: rails.Metrics, desc: desc}
				}
			}()
		}
		go func() {
			for _, j := range jobs {
				jobCh <- j
			}
			close(jobCh)
		}()

		runsDone := len(loaded)
		for range jobs {
			o := <-outCh
			if o.mc != nil && o.err == nil {
				// Merge is commutative, so folding in completion order still
				// yields a deterministic aggregate.
				if agg == nil {
					agg = metrics.NewCollector(metrics.Options{})
				}
				agg.Merge(o.mc)
			}
			pr := &results[o.point]
			pr.Runs[o.rep] = o.res
			if o.err != nil {
				pr.Errs[o.rep] = o.err.Error()
			}
			if journal != nil {
				rec := record{Point: o.point, Rep: o.rep, Key: pr.Key, Seed: o.seed, Run: o.desc, Result: o.res}
				if o.err != nil {
					rec.Error = o.err.Error()
				}
				if err := journal.append(rec); err != nil {
					return nil, err
				}
			}
			remaining[o.point]--
			if remaining[o.point] == 0 {
				pointsDone++
				if opt.OnPointDone != nil {
					opt.OnPointDone(pointsDone, len(points))
				}
			}
			runsDone++
			prog.report(pointsDone, runsDone, runsDone-len(loaded), int(busy.Load()), runsDone == len(points)*replicates)
		}
		if obsErr != nil {
			return nil, fmt.Errorf("harness: writing observation files: %w", obsErr)
		}
	}
	if opt.SeriesDir != "" {
		if err := WriteFile(filepath.Join(opt.SeriesDir, "aggregate.prom"), agg.WritePrometheus); err != nil {
			return nil, fmt.Errorf("harness: writing sweep aggregate: %w", err)
		}
	}
	prog.finish()
	return results, nil
}

// sanitizeKey maps a point key to a safe file-name fragment.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, key)
}

// safeRun isolates one simulation: a panic in the engine (a diverging
// configuration, an invariant violation) becomes an error for that run
// alone instead of killing the whole sweep.
func safeRun(run func(string, sim.Config) (*sim.Result, error), key string, cfg sim.Config) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return run(key, cfg)
}
