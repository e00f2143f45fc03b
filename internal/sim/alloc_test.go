package sim

import (
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/metrics"
	"wormnet/internal/router"
	"wormnet/internal/trace"
)

// measureStepAllocs warms an engine into steady state and measures the
// allocations of one simulation cycle, with the Debug audits on or off. The
// run is held in the warm-up phase so histogram growth (a legitimate,
// amortized cost of the measurement window) does not mask a hot-path
// regression.
func measureStepAllocs(t *testing.T, tr *trace.Recorder, mc *metrics.Collector, debug bool) float64 {
	t.Helper()
	cfg := smallConfig()
	cfg.Debug = debug
	cfg.Load = 1.5
	cfg.InjectionLimit = -1
	cfg.Warmup = 1 << 40
	cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) }
	cfg.Trace = tr
	cfg.Metrics = mc
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(500, func() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepSteadyStateAllocationFree: once the network has warmed up, a
// simulation cycle must not allocate — the source queues are ring buffers,
// the engine's scratch buffers are pre-sized from the fabric geometry, and
// the deadlock oracle runs on epoch-stamped flat arrays. With tracing
// disabled (the default), every emit site must cost exactly the nil-check
// branch: zero allocations.
func TestStepSteadyStateAllocationFree(t *testing.T) {
	if avg := measureStepAllocs(t, nil, nil, false); avg != 0 {
		t.Fatalf("steady-state Step allocates %.3f times per cycle, want 0", avg)
	}
}

// TestStepTracedRingAllocationFree: the flight recorder's ring path must
// also be allocation-free — events land in the pre-allocated ring,
// overwriting the oldest.
func TestStepTracedRingAllocationFree(t *testing.T) {
	rec := trace.NewRecorder(1024)
	if avg := measureStepAllocs(t, rec, nil, false); avg != 0 {
		t.Fatalf("ring-traced steady-state Step allocates %.3f times per cycle, want 0", avg)
	}
	if rec.Total() == 0 {
		t.Fatal("recorder saw no events; the zero-allocation result proves nothing")
	}
}

// TestStepMeteredAllocationFree: with a metrics collector attached, the hot
// path must still not allocate — counters are atomic adds, and the sampler's
// window snapshots land in pre-sized scratch and ring slots. The window is
// set small enough that the measured cycles include sampling boundaries, so
// takeSample itself is under the meter.
func TestStepMeteredAllocationFree(t *testing.T) {
	mc := metrics.NewCollector(metrics.Options{Window: 64})
	if avg := measureStepAllocs(t, nil, mc, false); avg != 0 {
		t.Fatalf("metered steady-state Step allocates %.3f times per cycle, want 0", avg)
	}
	if mc.SampleCount() == 0 {
		t.Fatal("collector took no samples; the zero-allocation result proves nothing")
	}
	if mc.Value(metrics.MDelivered) == 0 {
		t.Fatal("collector counted no deliveries; instrumentation sites are not firing")
	}
}

// TestStepDebugAllocationFree: the Debug audits — the fabric's invariants,
// the oracle cross-check, the active-set and route-memo audits and the
// detector's own — recount into scratch the fabric and the engine keep, so an
// audited cycle does not allocate either. The model checker audits every
// step it takes.
func TestStepDebugAllocationFree(t *testing.T) {
	if avg := measureStepAllocs(t, nil, nil, true); avg != 0 {
		t.Fatalf("audited steady-state Step allocates %.3f times per cycle, want 0", avg)
	}
}
