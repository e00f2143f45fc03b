package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wormnet/internal/metrics"
	"wormnet/internal/sim"
	"wormnet/internal/spec"
)

// -update rewrites the committed window goldens instead of comparing.
var update = flag.Bool("update", false, "rewrite the window goldens in testdata/window")

// TestWindowGolden holds what a run reports to the committed bytes: the
// measured-window counters read mid-run during warm-up, inside the window and
// after it, the final Result with its three histograms, the metrics series
// as JSONL and CSV, the Prometheus text and the /status document. Each leg is a saturated single-VC 4-ary 2-cube
// with a warm-up, stepped past the end of its window, so counts from all
// three phases are in play and the window must exclude the first and the
// last.
func TestWindowGolden(t *testing.T) {
	legs := []struct {
		name string
		set  func(*spec.Run)
	}{
		{"ndm-progressive", func(r *spec.Run) {}},
		{"ndm-regressive", func(r *spec.Run) { r.Recovery = spec.Regressive }},
		{"cmh-ctrl-vc", func(r *spec.Run) {
			r.Mechanism, r.ProbeTransport = spec.CMH, spec.ProbeControlVC
		}},
		{"cmh-steal-idle", func(r *spec.Run) {
			r.Mechanism, r.ProbeTransport = spec.CMH, spec.ProbeStealIdle
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			r := spec.Default()
			r.K, r.N = 4, 2
			r.VirtualChannels = 1
			r.Load = 2.0
			r.InjectionLimit = -1
			r.Threshold = 8
			r.Warmup, r.Measure = 300, 1200
			r.OracleEvery = 1
			r.Seed = 3
			leg.set(&r)
			got := windowRun(t, r, []int64{150, 900, 1800}, 2000)
			path := filepath.Join("testdata", "window", leg.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with go test -run TestWindowGolden -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("run output differs from %s:\n%s", path, firstDiff(got, want))
			}
		})
	}
}

// windowRun steps the run to each cycle of at, recording Stats there, then
// to cycle last, and renders everything it reports as text.
func windowRun(t *testing.T, r spec.Run, at []int64, last int64) []byte {
	t.Helper()
	cfg, err := r.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	mc := metrics.NewCollector(metrics.Options{Window: 100})
	cfg.Metrics = mc
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	line := func(label string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %s\n", label, b)
	}
	step := func(to int64) {
		for e.Now() < to {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range at {
		step(c)
		line(fmt.Sprintf("stats@%d", c), e.Stats())
	}
	step(last)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	line("result", res)
	out.WriteString("series\n")
	if err := mc.WriteSeriesJSONL(&out); err != nil {
		t.Fatal(err)
	}
	out.WriteString("csv\n")
	if err := mc.WriteSeriesCSV(&out); err != nil {
		t.Fatal(err)
	}
	out.WriteString("prometheus\n")
	if err := mc.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	// The /status document, encoded as the exporter serves it.
	out.WriteString("status\n")
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	st := mc.Snapshot()
	if err := enc.Encode(&st); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d\n got:  %s\n want: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
