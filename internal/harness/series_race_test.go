package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wormnet/internal/metrics"
)

// TestSeriesSweepRace is the worker-pool regression test for per-run metrics
// collectors, mirroring TestTracedSweepRace: Point.Config is shared across
// replicates, so a single shared collector would race (its sampler ring and
// scratch are single-owner) the moment two replicates of a point run
// concurrently. Under `go test -race` this sweep fails loudly if the harness
// ever reintroduces collector sharing; without -race it still verifies that
// every run dumped a decodable series, that the sweep aggregate merged every
// run's collector, and that metering never perturbs results: the metered
// concurrent sweep must be bit-identical to a serial unmetered one.
func TestSeriesSweepRace(t *testing.T) {
	points := tracedSweepPoints()
	dir := t.TempDir()
	const replicates = 4
	metered, err := Run(points, Options{
		Workers:    4,
		Replicates: replicates,
		BaseSeed:   7,
		Observe:    Observe{SeriesDir: dir, SeriesWindow: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range metered {
		if !pr.OK() {
			t.Fatalf("point %d failed: %s", pr.Index, pr.Err())
		}
	}

	// Every completed run left a decodable per-run series with monotonically
	// increasing sample cycles and live occupancy (the sweep saturates, so a
	// series of all-zero gauges would mean the prober is disconnected).
	files, err := filepath.Glob(filepath.Join(dir, "p*-r*-*.series.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(points) * replicates; len(files) != want {
		t.Fatalf("got %d series files, want %d (one per run)", len(files), want)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.DecodeSeries(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(samples) == 0 {
			t.Fatalf("%s: empty series", name)
		}
		busy := false
		for i, s := range samples {
			if i > 0 && s.Cycle <= samples[i-1].Cycle {
				t.Fatalf("%s: sample %d cycle %d not after %d", name, i, s.Cycle, samples[i-1].Cycle)
			}
			if s.BusyVCs > 0 {
				busy = true
			}
		}
		if !busy {
			t.Errorf("%s: no sample saw a busy VC in a saturated sweep", name)
		}
	}

	// The aggregate merged every run: its cycle counter is the sum
	// of all runs' cycles, which is at least Measure per run.
	agg, err := os.ReadFile(filepath.Join(dir, "aggregate.prom"))
	if err != nil {
		t.Fatal(err)
	}
	cycles := int64(-1)
	for _, line := range strings.Split(string(agg), "\n") {
		if v, ok := strings.CutPrefix(line, "wormnet_cycles_total "); ok {
			if cycles, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64); err != nil {
				t.Fatalf("aggregate.prom: %v", err)
			}
		}
	}
	if min := int64(len(points) * replicates * 800); cycles < min {
		t.Fatalf("aggregate wormnet_cycles_total = %d, want >= %d (sum over all runs)", cycles, min)
	}

	// Metering is pure observation: a serial unmetered sweep of the same
	// spec must produce bit-identical results.
	plain, err := Run(tracedSweepPoints(), Options{Workers: 1, Replicates: replicates, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(metered)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("metered concurrent sweep and unmetered serial sweep disagree")
	}
}
