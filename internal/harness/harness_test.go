package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"wormnet/internal/sim"
	"wormnet/internal/spec"
)

// simConfig translates a description the tests build from spec.Default.
func simConfig(r spec.Run) sim.Config {
	cfg, err := r.SimConfig()
	if err != nil {
		panic(err)
	}
	return cfg
}

// tinyConfig is a fast 9-node simulation used as the unit of sweep work.
func tinyConfig(load float64) sim.Config {
	r := spec.Default()
	r.K, r.N = 3, 2
	r.Load = load
	r.Warmup, r.Measure = 100, 400
	return simConfig(r)
}

// grid builds n points with distinct loads and keys.
func grid(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		load := 0.05 + 0.03*float64(i)
		pts[i] = Point{Key: fmt.Sprintf("load=%.2f", load), Config: tinyConfig(load)}
	}
	return pts
}

// marshal serializes results for bit-exact comparison.
func marshal(t *testing.T, res []PointResult) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSweepWithPanicOnFourWorkers(t *testing.T) {
	// A 16-point sweep on 4 workers; point 5 deliberately panics. The
	// acceptance criterion for the harness: the panic is recorded as that
	// point's failure and every other point still completes. Run under
	// `go test -race` this also exercises the pool for data races.
	pts := grid(16)
	pts[5].Key = "boom"
	res, err := Run(pts, Options{
		Workers: 4,
		Run: func(key string, cfg sim.Config) (*sim.Result, error) {
			if key == "boom" {
				panic("deliberate divergence")
			}
			return sim.Run(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 16 {
		t.Fatalf("%d results, want 16", len(res))
	}
	for i, pr := range res {
		if i == 5 {
			if pr.OK() {
				t.Fatal("panicking point reported OK")
			}
			if !strings.Contains(pr.Err(), "deliberate divergence") {
				t.Errorf("panic message lost: %q", pr.Err())
			}
			if pr.Runs[0] != nil {
				t.Error("failed replicate has a result")
			}
			continue
		}
		if !pr.OK() {
			t.Errorf("point %d failed: %s", i, pr.Err())
		}
		if pr.Runs[0] == nil || pr.Runs[0].Delivered == 0 {
			t.Errorf("point %d delivered nothing", i)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	pts := grid(8)
	serial, err := Run(pts, Options{Workers: 1, Replicates: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(pts, Options{Workers: 8, Replicates: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := marshal(t, serial), marshal(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatal("1-worker and 8-worker sweeps differ")
	}
	// Replicates with different derived seeds are distinct runs.
	r0 := serial[0]
	if r0.Runs[0].Delivered == r0.Runs[1].Delivered &&
		r0.Runs[0].LatencySum == r0.Runs[1].LatencySum {
		t.Error("replicates look identical; seed derivation suspect")
	}
	// Aggregation helpers are deterministic and sane.
	m := r0.Metric(func(r *sim.Result) float64 { return float64(r.Delivered) })
	if m.N != 2 || m.Mean <= 0 {
		t.Errorf("metric summary %+v", m)
	}
	if r0.MergedLatency().Count() !=
		r0.Runs[0].LatencyHist.Count()+r0.Runs[1].LatencyHist.Count() {
		t.Error("merged latency histogram lost samples")
	}
}

func TestDifferentBaseSeedDiffers(t *testing.T) {
	pts := grid(2)
	a, err := Run(pts, Options{BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pts, Options{BaseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(marshal(t, a), marshal(t, b)) {
		t.Fatal("different base seeds produced identical sweeps")
	}
}

func TestJournalAndResume(t *testing.T) {
	pts := grid(6)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	opts := Options{Workers: 3, Replicates: 2, BaseSeed: 3, Journal: path}

	full, err := Run(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, full)

	// Simulate a kill: keep the header and the first 5 completed runs, plus
	// a truncated half-written record at the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 7 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	cut := bytes.Join(lines[:6], nil)
	cut = append(cut, []byte(`{"point":3,"rep":1,"ke`)...) // partial tail, no newline
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: only the missing runs execute, and the aggregate matches the
	// uninterrupted sweep bit for bit.
	var executed atomic.Int32
	resumeOpts := opts
	resumeOpts.Resume = true
	resumeOpts.Run = func(_ string, cfg sim.Config) (*sim.Result, error) {
		executed.Add(1)
		return sim.Run(cfg)
	}
	resumed, err := Run(pts, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(executed.Load()); got != 12-5 {
		t.Errorf("resume executed %d runs, want %d", got, 12-5)
	}
	if !bytes.Equal(marshal(t, resumed), want) {
		t.Fatal("resumed sweep differs from uninterrupted sweep")
	}

	// The journal is now complete: resuming again runs nothing.
	executed.Store(0)
	again, err := Run(pts, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Errorf("complete journal still executed %d runs", executed.Load())
	}
	if !bytes.Equal(marshal(t, again), want) {
		t.Fatal("journal-only sweep differs")
	}
}

func TestResumeJournalsFailures(t *testing.T) {
	// A failed run is journaled with its error and not retried on resume.
	pts := grid(3)
	pts[1].Key = "boom"
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	boom := func(key string, cfg sim.Config) (*sim.Result, error) {
		if key == "boom" {
			panic("deliberate divergence")
		}
		return sim.Run(cfg)
	}
	first, err := Run(pts, Options{Journal: path, Run: boom})
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int32
	resumed, err := Run(pts, Options{Journal: path, Resume: true,
		Run: func(key string, cfg sim.Config) (*sim.Result, error) {
			executed.Add(1)
			return boom(key, cfg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Errorf("resume re-executed %d journaled runs", executed.Load())
	}
	if resumed[1].OK() || !strings.Contains(resumed[1].Err(), "deliberate divergence") {
		t.Errorf("journaled failure lost: %+v", resumed[1].Errs)
	}
	if !bytes.Equal(marshal(t, first), marshal(t, resumed)) {
		t.Fatal("resumed sweep with failure differs")
	}
}

func TestResumeRejectsMismatchedSweep(t *testing.T) {
	pts := grid(4)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := Run(pts, Options{Journal: path, BaseSeed: 1}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Options{
		"seed":       {Journal: path, Resume: true, BaseSeed: 2},
		"replicates": {Journal: path, Resume: true, BaseSeed: 1, Replicates: 3},
	} {
		if _, err := Run(pts, bad); err == nil {
			t.Errorf("resume with different %s accepted", name)
		}
	}
	if _, err := Run(grid(5), Options{Journal: path, Resume: true, BaseSeed: 1}); err == nil {
		t.Error("resume with different point count accepted")
	}
	// A different spec at the same shape is caught by the key check.
	other := grid(4)
	other[2].Key = "renamed"
	if _, err := Run(other, Options{Journal: path, Resume: true, BaseSeed: 1}); err == nil {
		t.Error("resume with changed point key accepted")
	}
	// Not a journal at all.
	garbage := filepath.Join(t.TempDir(), "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("hello\nworld\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pts, Options{Journal: garbage, Resume: true, BaseSeed: 1}); err == nil {
		t.Error("garbage journal accepted")
	}
}

// TestResumeRejectsChangedConfig: a sweep of the same shape, keys and seeds
// whose runs differ in configuration (here the pattern) is refused, and the
// error names both runs' descriptions.
func TestResumeRejectsChangedConfig(t *testing.T) {
	pts := grid(2)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := Run(pts, Options{Journal: path}); err != nil {
		t.Fatal(err)
	}
	r := spec.Default()
	r.K, r.N, r.Pattern, r.Warmup, r.Measure = 3, 2, spec.Transpose, 100, 400
	changed := grid(2)
	for i := range changed {
		r.Load = changed[i].Config.Load
		changed[i].Config = simConfig(r)
	}
	var executed atomic.Int32
	_, err := Run(changed, Options{Journal: path, Resume: true,
		Run: func(_ string, cfg sim.Config) (*sim.Result, error) {
			executed.Add(1)
			return sim.Run(cfg)
		}})
	if err == nil || !strings.Contains(err.Error(), "bernoulli(uniform,") || !strings.Contains(err.Error(), "bernoulli(transpose,") {
		t.Errorf("resume with a changed pattern: %v; want an error naming both runs", err)
	}
	if executed.Load() != 0 {
		t.Errorf("refused resume still executed %d runs", executed.Load())
	}
}

func TestResumeWithMissingJournalStartsFresh(t *testing.T) {
	pts := grid(2)
	path := filepath.Join(t.TempDir(), "new.jsonl")
	res, err := Run(pts, Options{Journal: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK() || !res[1].OK() {
		t.Fatal("fresh resume sweep failed")
	}
	if _, err := os.Stat(path); err != nil {
		t.Error("journal was not created")
	}
}

func TestOnPointDoneAndProgress(t *testing.T) {
	pts := grid(5)
	var calls []int
	var buf bytes.Buffer
	_, err := Run(pts, Options{
		Workers:  2,
		Progress: &buf,
		OnPointDone: func(done, total int) {
			if total != 5 {
				t.Errorf("total = %d", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 || calls[4] != 5 {
		t.Errorf("OnPointDone calls = %v", calls)
	}
	out := buf.String()
	if !strings.Contains(out, "5/5 points") || !strings.Contains(out, "workers") {
		t.Errorf("progress output missing fields: %q", out)
	}
}

func TestEmptySweepRejected(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestConfigErrorRecordedPerPoint(t *testing.T) {
	// An invalid config fails its point (sim.New error) without aborting.
	pts := grid(3)
	pts[2].Config.K = 0
	res, err := Run(pts, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[2].OK() {
		t.Fatal("invalid config reported OK")
	}
	if !res[0].OK() || !res[1].OK() {
		t.Fatal("valid points affected by invalid one")
	}
}

// TestResumeWritesNoPartialAggregate: the journal keeps no metrics
// collectors, so a resumed sweep cannot aggregate the runs it loads. After a
// complete resume the aggregate.prom the first invocation wrote is left
// byte-equal; a partial resume into an empty series directory writes none.
// Both say so on Progress, naming the file and the runs it would lack.
func TestResumeWritesNoPartialAggregate(t *testing.T) {
	pts := grid(3)
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	opts := Options{Workers: 2, Replicates: 2, BaseSeed: 5, Journal: path,
		Observe: Observe{SeriesDir: filepath.Join(dir, "series")}}
	if _, err := Run(pts, opts); err != nil {
		t.Fatal(err)
	}
	agg := filepath.Join(dir, "series", "aggregate.prom")
	want, err := os.ReadFile(agg)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(seriesDir string) string {
		t.Helper()
		var progress bytes.Buffer
		o := opts
		o.Resume, o.Progress, o.SeriesDir = true, &progress, seriesDir
		if _, err := Run(pts, o); err != nil {
			t.Fatal(err)
		}
		return progress.String()
	}

	note := resume(filepath.Join(dir, "series"))
	if got, err := os.ReadFile(agg); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a complete resume rewrote %s (err %v)", agg, err)
	}
	if line := fmt.Sprintf("harness: %s not written: it would lack the 6 runs resumed from the journal\n", agg); !strings.Contains(note, line) {
		t.Errorf("complete resume reported %q, want a line %q", note, line)
	}

	// Keep the header and the first two runs: a partial resume.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(path, bytes.Join(lines[:3], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh")
	note = resume(fresh)
	if _, err := os.Stat(filepath.Join(fresh, "aggregate.prom")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a partial resume left an aggregate in %s (stat: %v)", fresh, err)
	}
	if line := fmt.Sprintf("harness: %s not written: it would lack the 2 runs resumed from the journal\n",
		filepath.Join(fresh, "aggregate.prom")); !strings.Contains(note, line) {
		t.Errorf("partial resume reported %q, want a line %q", note, line)
	}
}
