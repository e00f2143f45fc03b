package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wormnet/internal/spec"
	"wormnet/internal/trace"
)

// tracedSweepPoints builds a small deadlock-prone sweep: single-VC fully
// adaptive routing past saturation marks messages within a few hundred
// cycles, so every run has a detection verdict to dump.
func tracedSweepPoints() []Point {
	points := make([]Point, 3)
	for i := range points {
		r := spec.Default()
		r.K, r.N = 3, 2
		r.VirtualChannels = 1
		r.Load = 1.5 + 0.5*float64(i)
		r.InjectionLimit = -1
		r.Warmup = 0
		r.Measure = 800
		r.Threshold = 8
		points[i] = Point{Key: "traced", Config: simConfig(r)}
	}
	return points
}

// TestTracedSweepRace is the worker-pool regression test for per-run flight
// recorders: Point.Config is shared across replicates, so a single shared
// recorder would race (and corrupt its ring) the moment two replicates of a
// point run concurrently. Under `go test -race` this sweep fails loudly if
// the harness ever reintroduces recorder sharing; without -race it still
// verifies that concurrent traced runs produce decodable per-run dumps and
// results identical to an untraced serial sweep.
func TestTracedSweepRace(t *testing.T) {
	points := tracedSweepPoints()
	dir := t.TempDir()
	traced, err := Run(points, Options{
		Workers:    4,
		Replicates: 4,
		BaseSeed:   7,
		Observe:    Observe{TraceDir: dir, TraceLast: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range traced {
		if !pr.OK() {
			t.Fatalf("point %d failed: %s", pr.Index, pr.Err())
		}
	}

	// Every run that recorded a detection left a decodable per-run dump.
	files, err := filepath.Glob(filepath.Join(dir, "p*-r*-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("saturated sweep dumped no traces; detections were expected")
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		found := false
		for _, ev := range events {
			if ev.Kind == trace.KindDetect {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: dumped without a detection event", name)
		}
	}

	// Tracing is pure observation: a serial untraced sweep of the same spec
	// must produce bit-identical results.
	plain, err := Run(tracedSweepPoints(), Options{Workers: 1, Replicates: 4, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(traced)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("traced concurrent sweep and untraced serial sweep disagree")
	}
}
