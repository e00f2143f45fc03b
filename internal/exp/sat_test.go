package exp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"wormnet/internal/sim"
	"wormnet/internal/spec"
	"wormnet/internal/traffic"
)

// serialSaturation is the one-probe-at-a-time bisection EstimateSaturation
// must reproduce bit for bit, kept verbatim as the reference. It also
// returns the probe loads in the order it ran them.
func serialSaturation(pattern sim.PatternFactory, lengths traffic.LengthDist, opt Options) (float64, []float64, error) {
	var loads []float64
	probe := func(load float64) (offered, accepted float64, err error) {
		loads = append(loads, load)
		base := spec.Default() // the paper's router and detector (NDM, t2=32)
		base.K, base.N = opt.K, opt.N
		cfg, err := base.SimConfig()
		if err != nil {
			return 0, 0, err
		}
		cfg.Pattern = pattern
		cfg.Lengths = lengths
		cfg.Load = load
		cfg.InjectionLimit = opt.InjectionLimit
		cfg.Warmup = opt.Warmup * 2
		cfg.Measure = opt.Measure / 2
		if cfg.Measure < 2000 {
			cfg.Measure = 2000
		}
		cfg.Seed = opt.Seed
		eng, err := sim.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		r, err := eng.Run()
		if err != nil {
			return 0, 0, err
		}
		return load, r.Throughput(), nil
	}

	// Throughput ceiling under unbounded load bounds the search.
	_, ceiling, err := probe(100)
	if err != nil {
		return 0, loads, err
	}
	if ceiling <= 0 {
		return 0, loads, fmt.Errorf("exp: network delivered nothing under saturating load")
	}
	lo, hi := 0.0, ceiling*1.25
	for i := 0; i < 7; i++ {
		mid := (lo + hi) / 2
		offered, accepted, err := probe(mid)
		if err != nil {
			return 0, loads, err
		}
		if accepted >= 0.95*offered {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, loads, nil
}

// TestEstimateSaturationExact holds the speculative search to the serial
// reference: the same float64 on every worker count, and with one worker
// the reference's probe loads in the reference's order.
func TestEstimateSaturationExact(t *testing.T) {
	for _, id := range []int{2, 3, 6, 7} { // uniform, locality, butterfly, hot-spot
		tbl, err := PaperTable(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2} {
			opt := DefaultOptions()
			opt.K, opt.N = 4, 2
			opt.Warmup, opt.Measure = 100, 1000
			opt.Seed = seed
			t.Run(fmt.Sprintf("%s/seed=%d", tbl.PatternName, seed), func(t *testing.T) {
				t.Parallel()
				want, wantLoads, err := serialSaturation(tbl.Pattern, SizeS.Dist, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 3, 4, 8} {
					opt := opt
					opt.Workers = w
					var mu sync.Mutex
					var loads []float64
					run := func(_ string, cfg sim.Config) (*sim.Result, error) {
						mu.Lock()
						loads = append(loads, cfg.Load)
						mu.Unlock()
						return sim.Run(cfg)
					}
					got, rounds, err := estimateSaturation(tbl.Pattern, SizeS.Dist, opt, run)
					if err != nil {
						t.Fatalf("workers %d: %v", w, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("workers %d: estimate %v, serial reference %v", w, got, want)
					}
					t.Logf("workers %d: %d rounds, %d probes", w, rounds, len(loads))
					sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
					if w == 1 && !slices.EqualFunc(loads, wantLoads, sameBits) {
						t.Errorf("one worker probed %v, serial reference %v", loads, wantLoads)
					}
				}
			})
		}
	}
}

// TestEstimateSaturationBrokenConfig: a configuration the engine refuses
// fails the estimate on every worker count, and no probe goroutine
// outlives the call.
func TestEstimateSaturationBrokenConfig(t *testing.T) {
	tbl, err := PaperTable(2)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.K, opt.N = 1, 2
	for _, w := range []int{1, 2, 3, 4, 8} {
		opt.Workers = w
		before := runtime.NumGoroutine()
		if sat, err := EstimateSaturation(tbl.Pattern, SizeS.Dist, opt); err == nil {
			t.Errorf("workers %d: K=1 estimated %v, want an error", w, sat)
		}
		// The harness's workers have delivered their results; the runtime
		// may take a moment to retire them.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers %d: %d goroutines before the estimate, %d after", w, before, after)
		}
	}
}

// TestSaturationFullScale measures the saturation (offered-load tracking
// boundary) of the 512-node 8-ary 3-cube for every pattern in the paper's
// evaluation, once per distinct pattern, and pins each estimate to the
// value the serial bisection produced. It is long-running; skipped in
// -short mode.
func TestSaturationFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale saturation sweep")
	}
	opt := DefaultOptions()
	opt.Warmup, opt.Measure = 2000, 8000
	// The serial bisection's estimates (16-flit messages, seed 1), not
	// bands around the paper's rates: a change to the saturation
	// criterion regenerates them.
	want := map[string]float64{
		"uniform":         0.5720558166503906,
		"locality":        1.7183270263671877,
		"bit-reversal":    0.42573783874511717,
		"perfect-shuffle": 0.36037178039550777,
		"butterfly":       0.4824153900146485,
		"hot-spot":        0.25589782714843745,
	}
	seen := map[string]bool{}
	for _, tbl := range PaperTables()[1:] {
		if seen[tbl.PatternName] {
			continue
		}
		seen[tbl.PatternName] = true
		t.Run(tbl.PatternName, func(t *testing.T) {
			t.Parallel()
			sat, rounds, err := estimateSaturation(tbl.Pattern, SizeS.Dist, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			paper := tbl.Rates[len(tbl.Rates)-1]
			t.Logf("saturation %v flits/cycle/node (paper: %.4f), %d probe rounds", sat, paper, rounds)
			if w, ok := want[tbl.PatternName]; !ok || math.Float64bits(sat) != math.Float64bits(w) {
				t.Errorf("saturation %v, pinned %v", sat, w)
			}
		})
	}
}
