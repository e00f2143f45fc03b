package sim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/metrics"
	"wormnet/internal/probe"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
	"wormnet/internal/trace"
)

// shardedConfig is a deadlock-prone small network: a single virtual channel
// per link under double-saturation load on a 4-ary 2-cube with the injection
// limiter off, so detection, recovery and the oracle all fire inside a short
// run.
func shardedConfig() Config {
	cfg := smallConfig()
	cfg.Router.VCsPerLink = 1
	cfg.Load = 2.0
	cfg.InjectionLimit = -1
	cfg.OracleEvery = 32
	cfg.Warmup, cfg.Measure = 500, 2500
	cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) }
	return cfg
}

// runSharded runs cfg on the given shard count, optionally with a flight
// recorder streaming to a buffer, returning the result and the raw trace
// bytes.
func runSharded(t *testing.T, cfg Config, shards int, traced bool) (*Result, []byte) {
	t.Helper()
	return runKernel(t, cfg, false, shards, traced)
}

// TestShardedByteIdentity is the core determinism gate of the sharded
// engine: for every detector family and both recovery styles, the full
// Result (counters and histograms) and the complete trace event stream must
// be byte-identical for shard counts 1, 2, 4 and 8. Untraced runs exercise
// the parallel detector EndCycle split; traced runs exercise the serial
// fallback — both must match the single-shard reference.
func TestShardedByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"ndm-progressive", func(c *Config) {}},
		{"ndm-regressive", func(c *Config) { c.Recovery = recovery.Regressive }},
		{"pdm", func(c *Config) {
			c.Detector = func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 24) }
		}},
		{"cmh", func(c *Config) {
			c.Detector = func(f *router.Fabric) detect.Detector {
				return probe.New(f, probe.Config{InitDelay: 8})
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardedConfig()
			tc.mod(&cfg)
			wantRes, wantTrace := runSharded(t, cfg, 1, true)
			if wantRes.Marked == 0 {
				t.Fatalf("reference run marked no messages; identity over a quiet run proves too little")
			}
			if len(wantTrace) == 0 {
				t.Fatal("reference run produced no trace bytes")
			}
			for _, shards := range []int{2, 4, 8} {
				gotRes, gotTrace := runSharded(t, cfg, shards, true)
				if gotRes.Counters != wantRes.Counters {
					t.Errorf("shards=%d traced: counters diverge\n got %+v\nwant %+v",
						shards, gotRes.Counters, wantRes.Counters)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("shards=%d: trace stream diverges (%d vs %d bytes)",
						shards, len(gotTrace), len(wantTrace))
				}
				if !reflect.DeepEqual(gotRes.LatencyHist, wantRes.LatencyHist) ||
					!reflect.DeepEqual(gotRes.DetectDelayHist, wantRes.DetectDelayHist) ||
					!reflect.DeepEqual(gotRes.DetectLatencyHist, wantRes.DetectLatencyHist) {
					t.Errorf("shards=%d: histograms diverge", shards)
				}
				// Untraced: the parallel EndCycle split (for Sharded
				// detectors) must still reproduce the reference counters.
				plainRes, _ := runSharded(t, cfg, shards, false)
				if plainRes.Counters != wantRes.Counters {
					t.Errorf("shards=%d untraced: counters diverge\n got %+v\nwant %+v",
						shards, plainRes.Counters, wantRes.Counters)
				}
			}
		})
	}
}

// TestShardedLockstepTxLinks steps a single-shard and a 3-shard engine in
// lockstep and compares the merged transmitted-link sequence, the pending
// list and the oracle set every cycle — catching any divergence at the cycle
// it first appears rather than in end-of-run aggregates. Three shards gives
// uneven block sizes (16 nodes -> 6/5/5), exercising the remainder handling.
func TestShardedLockstepTxLinks(t *testing.T) {
	cfg := shardedConfig()
	cfg.Debug = false
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfg
	cfgB.Shards = 3
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 800; cyc++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.txLinks, b.txLinks) {
			t.Fatalf("cycle %d: txLinks diverge:\n 1 shard: %v\n 3 shards: %v", cyc, a.txLinks, b.txLinks)
		}
		if !slices.Equal(a.pending, b.pending) {
			t.Fatalf("cycle %d: pending lists diverge:\n 1 shard: %v\n 3 shards: %v", cyc, a.pending, b.pending)
		}
		setA, setB := a.oracle.Deadlocked(), b.oracle.Deadlocked()
		if !slices.Equal(setA, setB) {
			t.Fatalf("cycle %d: oracle sets diverge: %v vs %v", cyc, setA, setB)
		}
		for i := 1; i < len(setA); i++ {
			if setA[i] <= setA[i-1] {
				t.Fatalf("cycle %d: oracle set not in ascending ID order: %v", cyc, setA)
			}
		}
	}
	if a.st != b.st {
		t.Fatalf("final counters diverge:\n 1 shard: %+v\n 3 shards: %+v", a.st, b.st)
	}
}

// TestShardedBarrierRace hammers the two-phase barrier with the race
// detector's instrumentation in mind (the CI race job runs this package
// with -race): a multi-shard run with metrics attached but no tracer takes
// the parallel detector path; a second run with both tracing and metrics
// takes the serial-detector path while the other phases still fan out.
func TestShardedBarrierRace(t *testing.T) {
	run := func(traced bool) {
		cfg := shardedConfig()
		cfg.Debug = false
		cfg.Warmup, cfg.Measure = 200, 600
		cfg.Shards = 4
		cfg.Metrics = metrics.NewCollector(metrics.Options{Window: 64})
		if traced {
			rec := trace.NewRecorder(256)
			rec.SetSink(&bytes.Buffer{})
			cfg.Trace = rec
		}
		res := mustRun(t, cfg)
		if res.Delivered == 0 {
			t.Fatal("race-run delivered nothing; the barrier was not exercised")
		}
		if cfg.Metrics.Value(metrics.MDelivered) == 0 {
			t.Fatal("collector counted no deliveries under sharding")
		}
	}
	run(false)
	run(true)
}

// TestShardsValidation pins the Config.Shards bounds: zero defaults to one,
// negatives and counts beyond the node count are rejected.
func TestShardsValidation(t *testing.T) {
	cfg := shardedConfig()
	cfg.Shards = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.shards); got != 1 {
		t.Fatalf("Shards=0 built %d shards, want 1", got)
	}
	for _, bad := range []int{-1, 17} { // 4-ary 2-cube has 16 nodes
		cfg := shardedConfig()
		cfg.Shards = bad
		if _, err := New(cfg); err == nil {
			t.Errorf("Shards=%d accepted, want error", bad)
		}
	}
	cfg = shardedConfig()
	cfg.Shards = 16
	if _, err := New(cfg); err != nil {
		t.Errorf("Shards=16 on 16 nodes rejected: %v", err)
	}
}
