package sim

import (
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

func uniformPattern(tp *topology.Torus) traffic.Pattern { return traffic.NewUniform(tp) }

func bitrevPattern(tp *topology.Torus) traffic.Pattern { return traffic.NewBitReversal(tp) }

// smallConfig is the paper's router, workload and detector (NDM, t2=32) on
// a 4-ary 2-cube, with the debug audits on.
func smallConfig() Config {
	return Config{
		K: 4, N: 2,
		Router:         router.DefaultConfig(),
		Pattern:        uniformPattern,
		Lengths:        traffic.Fixed(16),
		Load:           0.2,
		Routing:        routing.TrueFullyAdaptive{},
		Detector:       func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 32) },
		Recovery:       recovery.Progressive,
		InjectionLimit: 6,
		MaxSourceQueue: 16,
		Warmup:         1000,
		Measure:        4000,
		Seed:           1,
		Debug:          true,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.K = 1 },
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.Pattern = nil },
		func(c *Config) { c.Lengths = nil },
		func(c *Config) { c.Load = -0.1 },
		func(c *Config) { c.Measure = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Router.VCsPerLink = 0 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLowLoadDeliversEverything(t *testing.T) {
	cfg := smallConfig()
	res := mustRun(t, cfg)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// At 20% load the network is far below saturation: accepted throughput
	// must track offered load closely.
	if thr := res.Throughput(); thr < 0.18 || thr > 0.22 {
		t.Errorf("throughput %.4f, want about 0.20", thr)
	}
	if res.Marked != 0 {
		t.Errorf("marked %d messages at 20%% load", res.Marked)
	}
	// Zero-load latency on a 4x4 torus (average distance 2) with 16-flit
	// messages is roughly 2 hops * 2 cycles + 16 flit cycles + port
	// overheads; anything far above that indicates a pipeline bug.
	if lat := res.AvgLatency(); lat < 16 || lat > 40 {
		t.Errorf("average latency %.1f, want about 20-30", lat)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Load = 0.8
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Counters != b.Counters {
		t.Fatalf("same seed diverged:\n%v\n%v", a.Counters, b.Counters)
	}
	cfg.Seed = 2
	c := mustRun(t, cfg)
	if a.Counters == c.Counters {
		t.Fatal("different seeds produced identical results")
	}
}

// TestFlitConservation: at any point, every live message's injected minus
// consumed flits are exactly the flits buffered in the fabric.
func TestFlitConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.Load = 1.0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3000; cycle++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if cycle%500 != 0 {
			continue
		}
		var inTransit int64
		e.Fabric().LiveMessages(func(m *router.Message) {
			if m.Injected < m.Consumed || m.Injected > m.Length {
				t.Fatalf("cycle %d: message accounting broken: %v", cycle, m)
			}
			inTransit += int64(m.Injected - m.Consumed)
		})
		var buffered int64
		for i := range e.Fabric().VCs {
			buffered += int64(e.Fabric().VCs[i].Flits)
		}
		if inTransit != buffered {
			t.Fatalf("cycle %d: %d flits in transit but %d buffered", cycle, inTransit, buffered)
		}
	}
}

func TestAllPatternsRun(t *testing.T) {
	patterns := map[string]PatternFactory{
		"uniform":  uniformPattern,
		"locality": func(tp *topology.Torus) traffic.Pattern { return traffic.NewLocality(tp, 2) },
		"bitrev":   func(tp *topology.Torus) traffic.Pattern { return traffic.NewBitReversal(tp) },
		"shuffle":  func(tp *topology.Torus) traffic.Pattern { return traffic.NewPerfectShuffle(tp) },
		"butterfly": func(tp *topology.Torus) traffic.Pattern {
			return traffic.NewButterfly(tp)
		},
		"hotspot": func(tp *topology.Torus) traffic.Pattern { return traffic.NewHotSpot(tp, 0, 0.05) },
	}
	for name, p := range patterns {
		cfg := smallConfig()
		cfg.Pattern = p
		cfg.Warmup, cfg.Measure = 500, 2000
		res := mustRun(t, cfg)
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", name)
		}
	}
}

func TestMessageLengthMixes(t *testing.T) {
	for _, lengths := range []traffic.LengthDist{
		traffic.Fixed(16),
		traffic.Fixed(64),
		traffic.Fixed(256),
		traffic.Bimodal{Short: 16, Long: 64, PShort: 0.6},
		traffic.Fixed(1), // degenerate single-flit messages
		traffic.Fixed(2),
	} {
		cfg := smallConfig()
		cfg.Lengths = lengths
		cfg.Warmup, cfg.Measure = 500, 3000
		res := mustRun(t, cfg)
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", lengths.Name())
		}
	}
}

// TestOverloadLiveness: far beyond saturation with detection and recovery
// the network must keep delivering (no wedge), and marks occur.
func TestOverloadLiveness(t *testing.T) {
	cfg := smallConfig()
	cfg.Router.VCsPerLink = 1 // deadlock-prone configuration
	cfg.InjectionLimit = -1   // no injection limitation
	cfg.Load = 2.0
	cfg.Warmup, cfg.Measure = 2000, 15000
	cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) }
	res := mustRun(t, cfg)
	if res.Delivered < 100 {
		t.Fatalf("network wedged: only %d delivered", res.Delivered)
	}
	if res.Marked == 0 {
		t.Fatal("no deadlock detections in a deadlock-prone overload")
	}
	if res.TrueMarked == 0 {
		t.Error("expected at least one true deadlock detection")
	}
}

// TestNoDetectionWedges: same overload without any detection must wedge on
// a true deadlock, which the periodic oracle observes.
func TestNoDetectionWedges(t *testing.T) {
	cfg := smallConfig()
	cfg.Router.VCsPerLink = 1
	cfg.InjectionLimit = -1
	cfg.Load = 2.0
	cfg.Warmup, cfg.Measure = 0, 15000
	cfg.Detector = nil
	cfg.OracleEvery = 100
	res := mustRun(t, cfg)
	if res.DeadlockCycles == 0 {
		t.Fatal("oracle never observed a deadlock without recovery")
	}
	if res.Marked != 0 {
		t.Fatal("messages marked without a detector")
	}
}

func TestRecoveryStyles(t *testing.T) {
	for _, style := range []recovery.Style{recovery.Progressive, recovery.Regressive} {
		cfg := smallConfig()
		cfg.Router.VCsPerLink = 1
		cfg.InjectionLimit = -1
		cfg.Load = 2.0
		cfg.Warmup, cfg.Measure = 2000, 10000
		cfg.Recovery = style
		cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) }
		res := mustRun(t, cfg)
		if res.Delivered < 100 {
			t.Fatalf("%v: wedged (%d delivered)", style, res.Delivered)
		}
		if res.Marked > 0 {
			switch style {
			case recovery.Progressive:
				if res.Absorbed == 0 {
					t.Errorf("progressive recovery absorbed nothing despite %d marks", res.Marked)
				}
			case recovery.Regressive:
				if res.Aborted == 0 {
					t.Errorf("regressive recovery aborted nothing despite %d marks", res.Marked)
				}
			}
		}
	}
}

// TestPDMMarksMoreThanNDM: the paper's central comparison, at matched
// thresholds under heavy load.
func TestPDMMarksMoreThanNDM(t *testing.T) {
	run := func(mk DetectorFactory) int64 {
		cfg := smallConfig()
		cfg.Load = 2.5
		cfg.InjectionLimit = -1
		cfg.Warmup, cfg.Measure = 2000, 20000
		cfg.Detector = mk
		return mustRun(t, cfg).Marked
	}
	ndm := run(func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 8) })
	pdm := run(func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 8) })
	if pdm <= ndm {
		t.Errorf("PDM marked %d, NDM marked %d; expected PDM > NDM", pdm, ndm)
	}
	if pdm == 0 {
		t.Error("PDM marked nothing under heavy overload")
	}
}

func TestInjectionLimitThrottles(t *testing.T) {
	run := func(limit int) *Result {
		cfg := smallConfig()
		cfg.Load = 3.0
		cfg.InjectionLimit = limit
		cfg.Warmup, cfg.Measure = 1000, 5000
		return mustRun(t, cfg)
	}
	free := run(-1)
	limited := run(3)
	if limited.Injected >= free.Injected {
		t.Errorf("limit=3 injected %d, unlimited injected %d", limited.Injected, free.Injected)
	}
}

func TestCrudeTimeoutDetectorsEndToEnd(t *testing.T) {
	for name, mk := range map[string]DetectorFactory{
		"src-age":   func(f *router.Fabric) detect.Detector { return detect.NewSourceAgeTimeout(200) },
		"src-stall": func(f *router.Fabric) detect.Detector { return detect.NewSourceStallTimeout(64) },
		"hdr-block": func(f *router.Fabric) detect.Detector { return detect.NewHeaderBlockTimeout(64) },
	} {
		cfg := smallConfig()
		cfg.Load = 2.5
		cfg.InjectionLimit = -1
		cfg.Warmup, cfg.Measure = 1000, 8000
		cfg.Detector = mk
		res := mustRun(t, cfg)
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", name)
		}
	}
}

func TestHypercube(t *testing.T) {
	cfg := smallConfig()
	cfg.K, cfg.N = 2, 4 // 16-node hypercube exercises the k=2 edge case
	cfg.Warmup, cfg.Measure = 500, 2000
	res := mustRun(t, cfg)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered on a hypercube")
	}
}

func TestOddRadix(t *testing.T) {
	cfg := smallConfig()
	cfg.K, cfg.N = 3, 3
	cfg.Warmup, cfg.Measure = 500, 2000
	res := mustRun(t, cfg)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered on odd radix")
	}
}

func TestMarksHistogramRecorded(t *testing.T) {
	cfg := smallConfig()
	cfg.Router.VCsPerLink = 1
	cfg.InjectionLimit = -1
	cfg.Load = 2.0
	cfg.Warmup, cfg.Measure = 2000, 15000
	cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) }
	res := mustRun(t, cfg)
	if res.Marked == 0 {
		t.Skip("no marks this seed")
	}
	var histTotal int64
	for k, c := range res.MarksPerCycleHist {
		if k == 0 {
			histTotal += c * int64(len(res.MarksPerCycleHist))
			continue
		}
		histTotal += int64(k) * c
	}
	if histTotal < res.Marked {
		t.Errorf("histogram accounts for %d marks, want at least %d", histTotal, res.Marked)
	}
}

// TestRecoveredMessagesEventuallyDelivered: with progressive recovery under
// overload, recovered messages re-enter and the sum of deliveries keeps
// growing (no livelock of re-injections).
func TestRecoveredMessagesEventuallyDelivered(t *testing.T) {
	cfg := smallConfig()
	cfg.Router.VCsPerLink = 1
	cfg.InjectionLimit = -1
	cfg.Load = 2.0
	cfg.Warmup = 0
	cfg.Measure = 20000
	cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 8) }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := int64(0)
	for i := 0; i < 10000; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	half = e.Stats().Delivered
	for i := 0; i < 10000; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Delivered <= half {
		t.Fatalf("deliveries stalled: %d then %d", half, e.Stats().Delivered)
	}
	if e.Stats().Reinjected == 0 && e.Stats().Marked > 0 &&
		e.Stats().RecoveredDelivered == 0 {
		t.Error("marks happened but nothing was re-injected or recovered-delivered")
	}
}

// TestMarkClassificationConsistent: every mark is classified as exactly one
// of true or false by the oracle.
func TestMarkClassificationConsistent(t *testing.T) {
	cfg := smallConfig()
	cfg.Router.VCsPerLink = 1
	cfg.InjectionLimit = -1
	cfg.Load = 2.0
	cfg.Warmup, cfg.Measure = 0, 15000
	cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 8) }
	res := mustRun(t, cfg)
	if res.Marked == 0 {
		t.Skip("no marks this configuration")
	}
	if res.TrueMarked+res.FalseMarked != res.Marked {
		t.Errorf("classification leak: %d true + %d false != %d marked",
			res.TrueMarked, res.FalseMarked, res.Marked)
	}
}

func TestStatsAccessors(t *testing.T) {
	cfg := smallConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Topology().Nodes() != 16 {
		t.Error("topology accessor")
	}
	if e.Detector() == nil {
		t.Error("detector accessor")
	}
	if e.Now() != 0 {
		t.Error("clock not at zero")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != cfg.Warmup+cfg.Measure {
		t.Errorf("TotalCycles = %d", res.TotalCycles)
	}
	if res.Detector == "" {
		t.Error("empty detector name")
	}
}

// TestInjectMessageRespectsQueueCap: manual injection must honor the same
// MaxSourceQueue bound that paces the workload generator — a full source
// queue rejects the message instead of growing without limit.
func TestInjectMessageRespectsQueueCap(t *testing.T) {
	cfg := smallConfig()
	cfg.Load = 0 // the workload generates nothing; only manual injections
	cfg.MaxSourceQueue = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if e.InjectMessage(0, 5, 4) == nil {
			t.Fatalf("injection %d rejected below the cap", i)
		}
	}
	if e.InjectMessage(0, 5, 4) != nil {
		t.Fatal("injection accepted with the source queue at MaxSourceQueue")
	}
	if got := e.queues[0].Len(); got != 4 {
		t.Fatalf("source queue holds %d messages, want 4", got)
	}
	// The cap is per node: a different source still accepts.
	if e.InjectMessage(1, 5, 4) == nil {
		t.Fatal("full queue on node 0 rejected an injection at node 1")
	}
	// Draining the queue reopens the source.
	for i := 0; i < 40 && e.queues[0].Len() == 4; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.InjectMessage(0, 5, 4) == nil {
		t.Fatal("injection still rejected after the queue drained")
	}
}

// TestCyclesCountMeasuredSteps: Stats().Cycles must report the cycles the
// engine actually spent in the measurement phase, not the configured window
// — a manually stepped run that stops early reports only what it measured.
func TestCyclesCountMeasuredSteps(t *testing.T) {
	cfg := smallConfig()
	cfg.Warmup, cfg.Measure = 100, 400
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Cycles; got != 0 {
		t.Fatalf("Cycles = %d during warm-up, want 0", got)
	}
	for i := 0; i < 200; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Cycles; got != 150 {
		t.Fatalf("Cycles = %d after 250 steps with 100 warm-up, want 150", got)
	}
	// A full Run still reports exactly the configured window, and stepping
	// past it does not inflate the count.
	res := mustRun(t, cfg)
	if res.Cycles != cfg.Measure {
		t.Fatalf("full run measured %d cycles, want %d", res.Cycles, cfg.Measure)
	}
}
