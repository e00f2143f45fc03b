package wormnet

// One benchmark per paper table (1-7) plus ablation benches for the design
// choices called out in DESIGN.md. Each table benchmark runs that table's
// saturated-load / threshold-32 cells at a reduced network scale (8-ary
// 2-cube, 64 nodes) with rates rescaled to the smaller network's measured
// saturation point, and reports the detection percentage as a custom
// metric "pct_detected" alongside the usual time/op. The full-scale tables
// (512-node 8-ary 3-cube, every threshold) are regenerated by cmd/tables.

import (
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"wormnet/internal/exp"
	"wormnet/internal/forensics"
	"wormnet/internal/metrics"
	"wormnet/internal/sim"
	"wormnet/internal/trace"
)

const (
	benchK = 8
	benchN = 2
)

var (
	satMu    sync.Mutex
	satCache = map[string]float64{}
)

// benchSaturation returns the (cached) saturation load of the benchmark
// network for the given paper table's pattern.
func benchSaturation(b *testing.B, tableID int) float64 {
	b.Helper()
	tbl, err := exp.PaperTable(tableID)
	if err != nil {
		b.Fatal(err)
	}
	satMu.Lock()
	defer satMu.Unlock()
	if v, ok := satCache[tbl.PatternName]; ok {
		return v
	}
	opt := exp.DefaultOptions()
	opt.K, opt.N = benchK, benchN
	opt.Warmup, opt.Measure = 1000, 4000
	sat, err := exp.EstimateSaturation(tbl.Pattern, exp.SizeS.Dist, opt)
	if err != nil {
		b.Fatal(err)
	}
	satCache[tbl.PatternName] = sat
	return sat
}

// benchTable runs one paper table's saturated column at threshold 32 and
// reports the worst detection percentage across message sizes.
func benchTable(b *testing.B, tableID int) {
	sat := benchSaturation(b, tableID)
	tbl, err := exp.PaperTable(tableID)
	if err != nil {
		b.Fatal(err)
	}
	paperSat := tbl.Rates[len(tbl.Rates)-1]

	mech := NDM
	if tbl.Mechanism == exp.MechPDM {
		mech = PDM
	}
	worst := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, size := range tbl.Sizes {
			cfg := DefaultConfig()
			cfg.K, cfg.N = benchK, benchN
			cfg.Load = sat // the table's saturated column, rescaled
			_ = paperSat
			cfg.Pattern = Pattern(tbl.PatternName)
			switch size.Key {
			case "s":
				cfg.Lengths = Len16
			case "l":
				cfg.Lengths = Len64
			case "L":
				cfg.Lengths = Len256
			default:
				cfg.Lengths = LenSL
			}
			cfg.Mechanism = mech
			cfg.Threshold = 32
			cfg.Warmup, cfg.Measure = 1000, 5000
			cfg.Seed = uint64(i + 1)
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if p := res.PctMarked(); p > worst {
				worst = p
			}
		}
	}
	b.ReportMetric(worst, "pct_detected_worst")
}

// BenchmarkTable1 reproduces Table 1's saturated column (PDM, uniform).
func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable2 reproduces Table 2's saturated column (NDM, uniform).
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3 reproduces Table 3's saturated column (NDM, locality).
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4 reproduces Table 4's saturated column (NDM, bit-reversal).
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }

// BenchmarkTable5 reproduces Table 5's saturated column (NDM, perfect-shuffle).
func BenchmarkTable5(b *testing.B) { benchTable(b, 5) }

// BenchmarkTable6 reproduces Table 6's saturated column (NDM, butterfly).
func BenchmarkTable6(b *testing.B) { benchTable(b, 6) }

// BenchmarkTable7 reproduces Table 7's saturated column (NDM, hot-spot).
func BenchmarkTable7(b *testing.B) { benchTable(b, 7) }

// benchOnce runs one configuration per iteration and reports its detection
// percentage.
func benchOnce(b *testing.B, mutate func(*Config)) {
	pct := 0.0
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.K, cfg.N = benchK, benchN
		cfg.Load = 1.2 // saturated for the 8-ary 2-cube
		cfg.Warmup, cfg.Measure = 1000, 5000
		cfg.Seed = uint64(i + 1)
		mutate(&cfg)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pct = res.PctMarked()
	}
	b.ReportMetric(pct, "pct_detected")
}

// BenchmarkAblationPromotionSimple measures NDM with the paper's simple
// all-P-to-G promotion policy at saturation.
func BenchmarkAblationPromotionSimple(b *testing.B) {
	benchOnce(b, func(c *Config) { c.SelectivePromotion = false })
}

// BenchmarkAblationPromotionSelective measures the selective promotion
// variant the paper leaves as future work.
func BenchmarkAblationPromotionSelective(b *testing.B) {
	benchOnce(b, func(c *Config) { c.SelectivePromotion = true })
}

// BenchmarkAblationInjectionLimitOn measures NDM with the injection
// limitation mechanism active (the paper's setting).
func BenchmarkAblationInjectionLimitOn(b *testing.B) {
	benchOnce(b, func(c *Config) { c.InjectionLimit = 9 })
}

// BenchmarkAblationInjectionLimitOff removes the injection limitation: the
// network saturates pathologically and detections rise.
func BenchmarkAblationInjectionLimitOff(b *testing.B) {
	benchOnce(b, func(c *Config) { c.InjectionLimit = -1 })
}

// BenchmarkAblationRecoveryProgressive measures software-based progressive
// recovery (absorb at the header node).
func BenchmarkAblationRecoveryProgressive(b *testing.B) {
	benchOnce(b, func(c *Config) {
		c.Recovery = Progressive
		c.VirtualChannels = 1
		c.InjectionLimit = -1
		c.Load = 2.0
	})
}

// BenchmarkAblationRecoveryRegressive measures abort-and-retry recovery.
func BenchmarkAblationRecoveryRegressive(b *testing.B) {
	benchOnce(b, func(c *Config) {
		c.Recovery = Regressive
		c.VirtualChannels = 1
		c.InjectionLimit = -1
		c.Load = 2.0
	})
}

// benchEngineStep measures one engine cycle of the benchmark-scale network
// (8-ary 2-cube, NDM detection) at the given load, reporting allocations:
// the engine's steady-state hot path must not allocate.
func benchEngineStep(b *testing.B, load float64) {
	cfg := DefaultConfig()
	cfg.K, cfg.N = benchK, benchN
	cfg.Load = load
	cfg.Warmup = 0
	cfg.Measure = int64(b.N) + 3000
	sc, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, sc, 3000)
}

// BenchmarkEngineStepLowLoad measures a cycle with light traffic.
func BenchmarkEngineStepLowLoad(b *testing.B) { benchEngineStep(b, 0.1) }

// BenchmarkEngineStepSaturation measures a cycle beyond the saturation
// point, where the fabric is congested and detection/recovery are active.
func BenchmarkEngineStepSaturation(b *testing.B) { benchEngineStep(b, 1.2) }

// BenchmarkEngineStepStorm measures one engine cycle of the deadlock-prone
// fabric the repo benchmark's deadlock64_storm workload runs (8-ary 2-cube,
// one virtual channel, load 2.0, no injection limit, the oracle classifying
// every cycle) under each detector family. Here most headers are blocked, so
// the cycle is routing retries, detection, the oracle and recovery rather
// than flit transfer. NDM and PDM must not allocate in steady state (CMH's
// per-initiator dedupe windows are still growing toward their working size
// this early, about one allocation per step). ndm+rails is the
// rails64_observed leg — a ring recorder, a metrics collector sampling every
// 256 cycles and an online forensics correlator on the NDM storm — so `make
// profile` shows what a traced cycle spends where; it must not allocate
// either: the correlator's open episode grows a fixed-size chunk at a time,
// less than once per step.
func BenchmarkEngineStepStorm(b *testing.B) {
	for _, tc := range []struct {
		name  string
		mech  Mechanism
		rails bool
	}{
		{"ndm", NDM, false}, {"pdm", PDM, false}, {"cmh", CMH, false}, {"ndm+rails", NDM, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sc := stormSimConfig(b, tc.mech)
			if tc.rails {
				sc.Trace = trace.NewRecorder(0)
				sc.Metrics = metrics.NewCollector(metrics.Options{Window: 256})
				sc.Trace.SetObserver(forensics.New(forensics.Options{Metrics: sc.Metrics}).Observe)
			}
			if allocs := benchSteps(b, sc, 3000); tc.mech != CMH && allocs != 0 {
				b.Errorf("%s storm cycle allocates %d times per step, want 0", tc.name, allocs)
			}
		})
	}
}

// stormSimConfig is the deadlock64_storm leg of the given mechanism, kept in
// the warm-up phase: histogram growth belongs to the measurement window, not
// to the cycle.
func stormSimConfig(b *testing.B, mech Mechanism) sim.Config {
	cfg := DefaultConfig()
	cfg.K, cfg.N = benchK, benchN
	cfg.VirtualChannels = 1
	cfg.Load = 2.0
	cfg.InjectionLimit = -1
	cfg.Mechanism = mech
	cfg.Threshold = 32
	cfg.OracleEvery = 1
	cfg.Warmup = 1 << 40
	cfg.Measure = 1
	sc, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// benchSteps builds an engine from sc, steps it warm cycles untimed and b.N
// cycles timed, and returns the allocations per timed step.
func benchSteps(b *testing.B, sc sim.Config, warm int) uint64 {
	eng, err := sim.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(b.N)
}

// BenchmarkEngineStepSat512 measures one engine cycle of the repo benchmark's
// torus512_sat leg: the paper-scale 8-ary 3-cube near saturation (load 0.514,
// NDM t2 = 32), timed in the measurement window after 4000 warm-up cycles. It
// is the workload the kernel's end-to-end claims are made on, so `make
// profile` profiles it; the cycle must not allocate (histogram growth, which
// the window's first cycles pay, amortizes to zero over any real b.N).
func BenchmarkEngineStepSat512(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Load = 0.514
	cfg.Warmup = 4000
	cfg.Measure = 1 << 40
	sc, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	if allocs := benchSteps(b, sc, 4000); b.N >= 100 && allocs != 0 {
		b.Errorf("saturated 512-node cycle allocates %d times per step, want 0", allocs)
	}
}

// benchOracle measures one full recomputation of the global deadlock oracle
// over a fabric frozen at the given load (after 3000 warm cycles).
func benchOracle(b *testing.B, load float64) {
	cfg := DefaultConfig()
	cfg.K, cfg.N = benchK, benchN
	cfg.Load = load
	cfg.Warmup = 0
	cfg.Measure = 1 << 40
	sc, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	benchOracleOn(b, sc, 3000)
}

// benchOracleOn builds an engine from sc, steps it warm cycles and times full
// oracle recomputations over the frozen fabric: each iteration invalidates
// the cached result so the greatest-fixpoint kernel runs every time. Steady
// state must be allocation-free.
func benchOracleOn(b *testing.B, sc sim.Config, warm int) {
	eng, err := sim.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	o := eng.Oracle()
	full := func() {
		o.Invalidate()
		_ = o.Deadlocked()
	}
	full()
	n := len(o.Deadlocked())
	if allocs := testing.AllocsPerRun(10, full); allocs != 0 {
		b.Errorf("a full oracle recomputation allocates %v times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full()
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "deadlocked_msgs")
}

// BenchmarkOracleLowLoad measures the oracle on a lightly loaded fabric
// (the common no-deadlock case: the seed scan dominates).
func BenchmarkOracleLowLoad(b *testing.B) { benchOracle(b, 0.1) }

// BenchmarkOracleSaturation measures the oracle on a saturated fabric,
// where the blocked set is large and the fixpoint does real work.
func BenchmarkOracleSaturation(b *testing.B) { benchOracle(b, 1.2) }

// BenchmarkOracleStorm measures a full recomputation on the deadlock64_storm
// NDM fabric frozen after 3000 warm cycles: one VC, so hundreds of blocked
// headers whose escapes propagate along long wait chains, where the
// multi-VC saturated fabric converges in a round or two. It is the oracle
// call the storm's every-cycle classification pays.
func BenchmarkOracleStorm(b *testing.B) { benchOracleOn(b, stormSimConfig(b, NDM), 3000) }

// BenchmarkOracleCachedSaturation measures the dirty-tracking short-circuit:
// repeated evaluations of an unchanged fabric must cost O(1) and answer from
// the cached set.
func BenchmarkOracleCachedSaturation(b *testing.B) {
	cfg := DefaultConfig()
	cfg.K, cfg.N = benchK, benchN
	cfg.Load = 1.2
	cfg.Warmup = 0
	cfg.Measure = 1 << 40
	sc, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	o := eng.Oracle()
	_ = o.Deadlocked()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Deadlocked()
	}
}

// benchEngineStepTrace measures the saturated engine cycle with the given
// flight-recorder attachment, making the three tracing modes (off, ring
// buffer, streaming JSONL) directly comparable. The disabled path must stay
// within noise of BenchmarkEngineStepSaturation — every emit site is one
// nil-check branch — and the ring path must still report 0 allocs/op.
func benchEngineStepTrace(b *testing.B, rec *trace.Recorder) {
	cfg := DefaultConfig()
	cfg.K, cfg.N = benchK, benchN
	cfg.Load = 1.2
	cfg.Warmup = 0
	cfg.Measure = int64(b.N) + 3000
	sc, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	sc.Trace = rec
	eng, err := sim.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStepTraceOff is the tracing-disabled baseline (identical
// workload to BenchmarkEngineStepSaturation).
func BenchmarkEngineStepTraceOff(b *testing.B) { benchEngineStepTrace(b, nil) }

// BenchmarkEngineStepTraceRing measures the flight-recorder ring path:
// events land in a fixed-capacity ring, overwriting the oldest.
func BenchmarkEngineStepTraceRing(b *testing.B) {
	benchEngineStepTrace(b, trace.NewRecorder(trace.DefaultCapacity))
}

// BenchmarkEngineStepTraceJSONL measures the streaming path: every event is
// also encoded to JSONL (sunk into io.Discard, so this isolates encoding
// cost from disk bandwidth).
func BenchmarkEngineStepTraceJSONL(b *testing.B) {
	rec := trace.NewRecorder(1)
	rec.SetSink(io.Discard)
	benchEngineStepTrace(b, rec)
}

// benchEngineStepMetrics measures the saturated engine cycle with the given
// metrics attachment, making the metering tiers (off, registry-only,
// sampler+HTTP) directly comparable to each other and to the tracing
// benches above. The disabled path must stay within noise of
// BenchmarkEngineStepSaturation — every instrumentation site is one
// nil-check branch — and the registry and sampler tiers must report
// 0 allocs/op. (The sampler+HTTP tier reports the scraper's own HTTP
// allocations too: testing counts every goroutine, not just the engine's.)
func benchEngineStepMetrics(b *testing.B, mc *metrics.Collector) {
	cfg := DefaultConfig()
	cfg.K, cfg.N = benchK, benchN
	cfg.Load = 1.2
	cfg.Warmup = 0
	cfg.Measure = int64(b.N) + 3000
	sc, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	sc.Metrics = mc
	eng, err := sim.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStepMetricsOff is the metrics-disabled baseline (identical
// workload to BenchmarkEngineStepSaturation and BenchmarkEngineStepTraceOff).
func BenchmarkEngineStepMetricsOff(b *testing.B) { benchEngineStepMetrics(b, nil) }

// BenchmarkEngineStepMetricsRegistry isolates counter/histogram cost: the
// sampling window is pushed past the benchmark horizon so no sample is ever
// taken, leaving only the atomic counter updates on the hot path.
func BenchmarkEngineStepMetricsRegistry(b *testing.B) {
	benchEngineStepMetrics(b, metrics.NewCollector(metrics.Options{Window: 1 << 40}))
}

// BenchmarkEngineStepMetricsSampler adds the time-series sampler at its
// default window, so the per-window fabric probe is amortized into the
// reported cost.
func BenchmarkEngineStepMetricsSampler(b *testing.B) {
	benchEngineStepMetrics(b, metrics.NewCollector(metrics.Options{}))
}

// BenchmarkEngineStepMetricsSamplerHTTP runs the full live-telemetry stack:
// default-window sampling plus the HTTP exporter being scraped continuously
// from another goroutine, the worst case a watched production run would see.
func BenchmarkEngineStepMetricsSamplerHTTP(b *testing.B) {
	mc := metrics.NewCollector(metrics.Options{})
	srv, err := metrics.Serve("127.0.0.1:0", mc)
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		url := "http://" + srv.Addr() + "/metrics"
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(url)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		<-scraped
		srv.Close()
	}()
	benchEngineStepMetrics(b, mc)
}

// BenchmarkEngineCycle measures raw simulation speed (one cycle of the
// paper's full-scale 512-node network at a high uniform load).
func BenchmarkEngineCycle(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Load = 0.514
	cfg.Warmup = 0
	cfg.Measure = int64(b.N) + 2000
	sc, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
