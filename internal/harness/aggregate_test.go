package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wormnet/internal/spec"
)

// -update rewrites the committed sweep-aggregate golden instead of comparing.
var update = flag.Bool("update", false, "rewrite testdata/aggregate.prom.golden")

// TestAggregateGolden holds a sweep's aggregate.prom to the committed bytes.
// The sweep merges members that differ from run to run: three detectors
// (three wormnet_info members), two replicates each, and episode metrics
// from the forensics rail, on a deadlock-prone single-VC 4-ary 2-cube with
// the oracle every cycle, as `tables -detlat -mechs pdm,ndm,cmh` runs it.
func TestAggregateGolden(t *testing.T) {
	var points []Point
	for _, mech := range []spec.Mechanism{spec.NDM, spec.PDM, spec.CMH} {
		r := spec.Default()
		r.K, r.N = 4, 2
		r.VirtualChannels = 1
		r.Load = 2.0
		r.InjectionLimit = -1
		r.Threshold = 16
		r.OracleEvery = 1
		r.Warmup, r.Measure = 200, 1500
		r.Mechanism = mech
		points = append(points, Point{Key: string(mech), Config: simConfig(r)})
	}
	dir := t.TempDir()
	res, err := Run(points, Options{
		Workers:    2,
		Replicates: 2,
		BaseSeed:   1,
		Observe: Observe{
			SeriesDir:    filepath.Join(dir, "series"),
			ForensicsDir: filepath.Join(dir, "incidents"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res {
		if !pr.OK() {
			t.Fatalf("point %s failed: %s", pr.Key, pr.Err())
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "series", "aggregate.prom"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "aggregate.prom.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestAggregateGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("aggregate.prom differs from %s:\n%s", path, got)
	}
}
