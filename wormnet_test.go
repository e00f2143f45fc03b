package wormnet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wormnet/internal/harness"
	"wormnet/internal/sim"
)

// small returns a fast configuration on a 16-node torus.
func small() Config {
	cfg := DefaultConfig()
	cfg.K, cfg.N = 4, 2
	cfg.Warmup, cfg.Measure = 500, 3000
	return cfg
}

func TestRunDefaultsOnSmallTorus(t *testing.T) {
	res, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.DetectorName != "ndm(t2=32)" {
		t.Errorf("detector %q", res.DetectorName)
	}
	if res.TotalCycles != 3500 {
		t.Errorf("TotalCycles = %d", res.TotalCycles)
	}
}

func TestRunAllPatterns(t *testing.T) {
	for _, p := range []Pattern{Uniform, Locality, BitReversal, PerfectShuffle, Butterfly, HotSpot} {
		cfg := small()
		cfg.Pattern = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", p)
		}
	}
}

// TestRunAllMechanisms runs every name the one mechanism factory accepts
// (the -mech values wormsim documents) and holds the facade's constants to
// exactly that set.
func TestRunAllMechanisms(t *testing.T) {
	names := sim.MechanismNames()
	for _, m := range []Mechanism{NDM, PDM, CMH, SourceAge, SourceStall, HeaderBlock, NoDetection} {
		if !slices.Contains(names, string(m)) {
			t.Errorf("facade mechanism %q is unknown to sim.Mechanism", m)
		}
	}
	if len(names) != 7 {
		t.Errorf("sim.MechanismNames() = %v: a mechanism without a facade constant", names)
	}
	for _, name := range names {
		m := Mechanism(name)
		cfg := small()
		cfg.Mechanism = m
		cfg.Threshold = 64
		cfg.Load = 1.0
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestRunAllLengths(t *testing.T) {
	for _, l := range []Lengths{Len16, Len64, Len256, LenSL} {
		cfg := small()
		cfg.Lengths = l
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunRecoveryStyles(t *testing.T) {
	for _, r := range []Recovery{Progressive, Regressive} {
		cfg := small()
		cfg.Recovery = r
		cfg.Load = 2.0
		cfg.VirtualChannels = 1
		cfg.InjectionLimit = -1
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"pattern":        func(c *Config) { c.Pattern = "nope" },
		"mechanism":      func(c *Config) { c.Mechanism = "nope" },
		"recovery":       func(c *Config) { c.Recovery = "nope" },
		"lengths":        func(c *Config) { c.Lengths = Lengths{} },
		"topology":       func(c *Config) { c.K = 0 },
		"trace-last":     func(c *Config) { c.TracePath, c.TraceLast = filepath.Join(t.TempDir(), "t.jsonl"), -5 },
		"metrics-window": func(c *Config) { c.SeriesPath, c.MetricsWindow = filepath.Join(t.TempDir(), "s.jsonl"), -5 },
	} {
		cfg := small()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
	}
}

// TestInvalidParametersAreErrors: workload and detector parameters the
// pattern and detector constructors cannot take, and tori too large for the
// topology tables, are refused by SimConfig with an error, before anything
// is built.
func TestInvalidParametersAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"hot-fraction-above-1", func(c *Config) { c.Pattern, c.HotFraction = HotSpot, 1.5 }},
		{"hot-fraction-negative", func(c *Config) { c.Pattern, c.HotFraction = HotSpot, -0.2 }},
		{"locality-radius-negative", func(c *Config) { c.Pattern, c.LocalityRadius = Locality, -1 }},
		{"tornado-k2", func(c *Config) { c.K, c.Pattern = 2, Tornado }},
		{"bit-reversal-k3", func(c *Config) { c.K, c.Pattern = 3, BitReversal }},
		{"ndm-th0", func(c *Config) { c.Threshold = 0 }},
		{"ndm-t1-above-t2", func(c *Config) { c.T1, c.Threshold = 40, 32 }},
		{"pdm-th0", func(c *Config) { c.Mechanism, c.Threshold = PDM, 0 }},
		{"ndm-70-ports", func(c *Config) { c.N, c.Ports = 3, 70 }},
		{"k2-n17", func(c *Config) { c.K, c.N = 2, 17 }},
		{"k65537-n1", func(c *Config) { c.K, c.N = 65537, 1 }},
		{"k1025-n3", func(c *Config) { c.K, c.N = 1025, 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := small()
			tc.mutate(&cfg)
			if _, err := cfg.SimConfig(); err == nil {
				t.Fatal("SimConfig accepted the configuration")
			}
			if _, err := Run(cfg); err == nil {
				t.Fatal("Run accepted the configuration")
			}
		})
	}
}

// TestSilentRewritesAreErrors: parameters a detector or the engine used to
// replace without a word (a CMH delay of 0 ran as 8, a negative hop cap as
// 64, a negative oracle interval as no oracle) or run as nonsense (a
// negative timeout) are refused by SimConfig. So is every zero or empty value
// that used to stand for spec.Default's (an empty name ran the default
// pattern, mechanism, routing, recovery, probe transport or victim; a zero
// locality radius ran 2, a zero hop cap 64, and a t1 below 1 ran 1).
func TestSilentRewritesAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"cmh-th0", func(c *Config) { c.Mechanism, c.Threshold = CMH, 0 }},
		{"cmh-probe-hops-negative", func(c *Config) { c.Mechanism, c.ProbeMaxHops = CMH, -3 }},
		{"oracle-every-negative", func(c *Config) { c.OracleEvery = -5 }},
		{"hdr-block-th-negative", func(c *Config) { c.Mechanism, c.Threshold = HeaderBlock, -5 }},
		{"src-age-th0", func(c *Config) { c.Mechanism, c.Threshold = SourceAge, 0 }},
		{"src-stall-th0", func(c *Config) { c.Mechanism, c.Threshold = SourceStall, 0 }},
		{"pattern-empty", func(c *Config) { c.Pattern = "" }},
		{"mechanism-empty", func(c *Config) { c.Mechanism = "" }},
		{"routing-empty", func(c *Config) { c.Routing = "" }},
		{"recovery-empty", func(c *Config) { c.Recovery = "" }},
		{"locality-radius-0", func(c *Config) { c.Pattern, c.LocalityRadius = Locality, 0 }},
		{"ndm-t1-0", func(c *Config) { c.T1 = 0 }},
		{"ndm-t1-negative-selective", func(c *Config) { c.T1, c.SelectivePromotion = -5, true }},
		{"cmh-probe-hops-0", func(c *Config) { c.Mechanism, c.ProbeMaxHops = CMH, 0 }},
		{"cmh-probe-transport-empty", func(c *Config) { c.Mechanism, c.ProbeTransport = CMH, "" }},
		{"cmh-probe-victim-empty", func(c *Config) { c.Mechanism, c.ProbeVictim = CMH, "" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := small()
			tc.mutate(&cfg)
			if _, err := cfg.SimConfig(); err == nil {
				t.Fatal("SimConfig accepted the configuration")
			}
		})
	}
}

// TestHotFractionZeroRunsItsValue: a hot-spot fraction of 0 runs a 0 % hot
// spot (it once ran spec.Default's 5 %), so its counters differ from 0.05's.
func TestHotFractionZeroRunsItsValue(t *testing.T) {
	run := func(frac float64) Metrics {
		cfg := small()
		cfg.Pattern, cfg.HotFraction = HotSpot, frac
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	if zero, five := run(0), run(0.05); zero == five {
		t.Errorf("hot fraction 0 ran the same as 0.05: %+v", zero)
	}
}

func TestSelectivePromotionRuns(t *testing.T) {
	cfg := small()
	cfg.SelectivePromotion = true
	cfg.Load = 2.0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.DetectorName, "selective") {
		t.Errorf("detector %q", res.DetectorName)
	}
}

func TestOracleEvery(t *testing.T) {
	cfg := small()
	cfg.OracleEvery = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleRuns == 0 {
		t.Error("oracle never ran")
	}
}

func TestRunPaperTableScaledDown(t *testing.T) {
	var progressCalls int
	dumps := t.TempDir()
	res, err := RunPaperTable(2, TableOptions{
		K: 4, N: 2,
		Warmup:        300,
		Measure:       1500,
		RelativeRates: true,
		Progress:      func(done, total int) { progressCalls++ },
		Observe:       harness.Observe{TraceDir: filepath.Join(dumps, "t"), ForensicsDir: filepath.Join(dumps, "f")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if progressCalls != 10*4*4 {
		t.Errorf("progress calls = %d, want 160", progressCalls)
	}
	// Every observation option reaches the harness: it creates each
	// configured directory up front, whether or not a cell dumps into it.
	for _, dir := range []string{"t", "f"} {
		if st, err := os.Stat(filepath.Join(dumps, dir)); err != nil || !st.IsDir() {
			t.Errorf("observation directory %q was not created: %v", dir, err)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Th 1024") {
		t.Errorf("rendered table malformed:\n%s", out)
	}
	if _, ok := res.WorstAtThreshold(32); !ok {
		t.Error("threshold 32 row missing")
	}
	if _, ok := res.Pct(32, 0, "s"); !ok {
		t.Error("cell lookup failed")
	}
	if _, ok := res.Pct(3, 0, "s"); ok {
		t.Error("nonexistent threshold found")
	}
}

func TestRunRoutingAlgorithms(t *testing.T) {
	for _, r := range []Routing{Adaptive, DOR, Duato} {
		cfg := small()
		cfg.Routing = r
		if r != Adaptive {
			cfg.Mechanism = NoDetection
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", r)
		}
	}
	// Unknown routing rejected.
	cfg := small()
	cfg.Routing = "nope"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown routing accepted")
	}
	// Detection with avoidance routing rejected.
	cfg = small()
	cfg.Routing = DOR
	if _, err := Run(cfg); err == nil {
		t.Error("detection accepted with DOR")
	}
}

func TestRunExtendedPatterns(t *testing.T) {
	for _, p := range []Pattern{Transpose, Tornado} {
		cfg := small()
		cfg.Pattern = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", p)
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	res, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 || res.LatencyP95 > res.LatencyP99 {
		t.Errorf("percentiles p50=%d p95=%d p99=%d", res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
}

// TestDetectionDelayHugsThreshold: once a deadlock forms, NDM marks within
// a small number of cycles after t2 expires — the detection delay
// percentiles sit at or just above the threshold.
func TestDetectionDelayHugsThreshold(t *testing.T) {
	cfg := small()
	cfg.VirtualChannels = 1
	cfg.InjectionLimit = -1
	cfg.Load = 2.0
	cfg.Threshold = 16
	cfg.Warmup, cfg.Measure = 0, 15000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Marked == 0 {
		t.Skip("no marks this seed")
	}
	if res.DetectDelayP50 < cfg.Threshold {
		t.Errorf("p50 detection delay %d below the threshold %d", res.DetectDelayP50, cfg.Threshold)
	}
	if res.DetectDelayP50 > cfg.Threshold*8 {
		t.Errorf("p50 detection delay %d far above the threshold %d", res.DetectDelayP50, cfg.Threshold)
	}
}

func TestObserve(t *testing.T) {
	cfg := small()
	var calls int
	var lastHeat string
	res, err := Observe(cfg, 500, func(cycle int64, summary, heatmap string) {
		calls++
		if summary == "" {
			t.Error("empty summary")
		}
		lastHeat = heatmap
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != int((cfg.Warmup+cfg.Measure)/500) {
		t.Errorf("observer called %d times", calls)
	}
	if !strings.Contains(lastHeat, "\n") {
		t.Errorf("heatmap missing for 2-D network: %q", lastHeat)
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered")
	}
	if _, err := Observe(cfg, 0, func(int64, string, string) {}); err == nil {
		t.Error("every=0 accepted")
	}
}

// TestObserveMatchesRun: watching a run changes nothing about its result —
// Observe reports exactly what Run does for the same seed, detection-delay
// and detection-latency percentiles included.
func TestObserveMatchesRun(t *testing.T) {
	cfg := small()
	cfg.VirtualChannels = 1
	cfg.InjectionLimit = -1
	cfg.Load = 2.0
	cfg.Threshold = 16
	cfg.OracleEvery = 1
	cfg.Warmup, cfg.Measure = 0, 4000
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.DetectDelayP99 == 0 || want.DetectLatencySamples == 0 {
		t.Fatalf("config detects nothing (delay p99 %d, latency samples %d): the comparison would be vacuous",
			want.DetectDelayP99, want.DetectLatencySamples)
	}
	got, err := Observe(cfg, 1000, func(int64, string, string) {})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Observe result differs from Run:\n got %v; detect delay p50/p99 %d/%d, detect latency p50/p99 %d/%d over %d\nwant %v; detect delay p50/p99 %d/%d, detect latency p50/p99 %d/%d over %d",
			got, got.DetectDelayP50, got.DetectDelayP99, got.DetectLatencyP50, got.DetectLatencyP99, got.DetectLatencySamples,
			want, want.DetectDelayP50, want.DetectDelayP99, want.DetectLatencyP50, want.DetectLatencyP99, want.DetectLatencySamples)
	}
}

// TestDeprecatedShardsIgnored: the deprecated Shards field changes nothing —
// a run that sets it returns the Result of the run that does not. Code that
// still sets it (the benchmark's torus512_sat_shards2 workload) relies on
// this.
func TestDeprecatedShardsIgnored(t *testing.T) {
	cfg := small()
	cfg.VirtualChannels = 1
	cfg.InjectionLimit = -1
	cfg.Load = 2.0
	cfg.OracleEvery = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Shards: 2 changed the result:\n got %v\nwant %v", got, want)
	}
}

func TestRunPaperTableUnknownID(t *testing.T) {
	if _, err := RunPaperTable(9, TableOptions{K: 4, N: 2}); err == nil {
		t.Fatal("table 9 accepted")
	}
}
