// Command loadsweep produces classic load-latency-throughput series for
// the three routing regimes the paper situates itself between:
//
//   - deterministic dimension-order routing (deadlock avoidance),
//   - Duato's adaptive protocol with escape channels (deadlock avoidance),
//   - true fully adaptive routing with NDM detection and progressive
//     recovery (the paper's regime).
//
// The paper's motivation — "deadlock recovery strategies allow the use of
// unrestricted fully adaptive routing, potentially outperforming deadlock
// avoidance techniques" — shows up as the adaptive+recovery series keeping
// the lowest latency and highest accepted throughput, at the price of the
// occasional (mostly false) deadlock detection that NDM keeps rare.
//
// The sweep runs on the parallel harness: every (load, regime, replicate)
// is an independent simulation scheduled across -workers goroutines, with
// per-run seeds derived purely from (-seed, point index, replicate index).
// Output is therefore bit-identical for any -workers value, and with
// -checkpoint set an interrupted sweep resumes with -resume.
//
// Example:
//
//	loadsweep -k 8 -n 2 -pattern bit-reversal -points 8 -workers 8 \
//	          -replicates 5 -checkpoint sweep.jsonl
//
// Default output is a whitespace-separated table: one row per offered
// load, one column group per regime (accepted throughput, average latency,
// p99 latency, % detected; mean±ci95 over replicates where applicable).
// -json emits the same data as structured JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wormnet"
	"wormnet/internal/harness"
	"wormnet/internal/sim"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
)

type regime struct {
	name    string
	routing wormnet.Routing
	mech    wormnet.Mechanism
}

var regimes = []regime{
	{"dor", wormnet.DOR, wormnet.NoDetection},
	{"duato", wormnet.Duato, wormnet.NoDetection},
	{"adaptive+ndm", wormnet.Adaptive, wormnet.NDM},
}

// seriesOut is the aggregated outcome of one (load, regime) point.
type seriesOut struct {
	Name        string        `json:"name"`
	Failed      bool          `json:"failed,omitempty"`
	Error       string        `json:"error,omitempty"`
	Throughput  stats.Summary `json:"throughput"`
	Latency     stats.Summary `json:"latency"`
	LatencyP99  int64         `json:"latencyP99"`
	PctDetected stats.Summary `json:"pctDetected"`
	Delivered   int64         `json:"delivered"`
}

type rowOut struct {
	Load   float64     `json:"load"`
	Series []seriesOut `json:"series"`
}

type sweepOut struct {
	K          int      `json:"k"`
	N          int      `json:"n"`
	Pattern    string   `json:"pattern"`
	Len        int      `json:"len"`
	Points     int      `json:"points"`
	Replicates int      `json:"replicates"`
	Seed       uint64   `json:"seed"`
	Rows       []rowOut `json:"rows"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadsweep: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		k       = flag.Int("k", 8, "radix")
		n       = flag.Int("n", 2, "dimensions")
		pattern = flag.String("pattern", "uniform", "traffic pattern")
		length  = flag.Int("len", 16, "message length in flits")
		points  = flag.Int("points", 8, "number of load points")
		maxFrac = flag.Float64("max", 1.1, "highest load as a fraction of the theoretical bound")
		warmup  = flag.Int64("warmup", 3000, "warm-up cycles per point")
		measure = flag.Int64("measure", 12000, "measured cycles per point")
		seed    = flag.Uint64("seed", 1, "base random seed; per-run seeds derive from it")
		asJSON  = flag.Bool("json", false, "emit JSON instead of the text table")
	)
	var sweep harness.Sweep
	sweep.AddFlags(flag.CommandLine, "replicates", nil)
	flag.Parse()

	// Reject invalid invocations loudly instead of running a default sweep.
	topoErr := topology.Validate(*k, *n)
	switch {
	case len(flag.Args()) > 0:
		fail("unexpected arguments %q (loadsweep takes only flags)", flag.Args())
	case topoErr != nil:
		fail("%v", topoErr)
	case *length < 1:
		fail("-len must be >= 1, got %d", *length)
	case *points < 1:
		fail("-points must be >= 1, got %d", *points)
	case *maxFrac <= 0:
		fail("-max must be > 0, got %g", *maxFrac)
	case *warmup < 0 || *measure <= 0:
		fail("need -warmup >= 0 and -measure > 0, got %d and %d", *warmup, *measure)
	}
	opt, err := sweep.Options()
	if err != nil {
		fail("%v", err)
	}
	opt.BaseSeed = *seed

	// Theoretical throughput bound for uniform-ish traffic: links per node
	// over average distance (~ n*k/4).
	bound := float64(2**n) / (float64(*n**k) / 4)

	// Expand the (load x regime) grid into harness points. Invalid
	// workload flags (unknown pattern, bad length) surface here, before
	// anything runs.
	var pts []harness.Point
	loads := make([]float64, *points)
	for p := 1; p <= *points; p++ {
		load := bound * *maxFrac * float64(p) / float64(*points)
		loads[p-1] = load
		for _, r := range regimes {
			cfg := wormnet.DefaultConfig()
			cfg.K, cfg.N = *k, *n
			cfg.Pattern = wormnet.Pattern(*pattern)
			cfg.Lengths = wormnet.Lengths{Fixed: *length}
			cfg.Load = load
			cfg.Routing = r.routing
			cfg.Mechanism = r.mech
			cfg.Threshold = 32
			cfg.Warmup = *warmup
			cfg.Measure = *measure
			sc, err := cfg.SimConfig()
			if err != nil {
				fail("%v", err)
			}
			pts = append(pts, harness.Point{
				Key:    fmt.Sprintf("load=%.6f/%s", load, r.name),
				Config: sc,
			})
		}
	}

	res, err := harness.Run(pts, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadsweep:", err)
		os.Exit(1)
	}

	out := sweepOut{
		K: *k, N: *n, Pattern: *pattern, Len: *length,
		Points: *points, Replicates: sweep.Replicates, Seed: *seed,
	}
	failed := 0
	for p := 0; p < *points; p++ {
		row := rowOut{Load: loads[p]}
		for ri := range regimes {
			pr := &res[p*len(regimes)+ri]
			s := seriesOut{Name: regimes[ri].name}
			if !pr.OK() {
				failed++
				s.Failed = true
				s.Error = pr.Err()
			}
			s.Throughput = pr.Metric((*sim.Result).Throughput)
			s.Latency = pr.Metric((*sim.Result).AvgLatency)
			s.PctDetected = pr.Metric((*sim.Result).PctMarked)
			s.LatencyP99 = pr.MergedLatency().Quantile(0.99)
			for _, r := range pr.Completed() {
				s.Delivered += r.Delivered
			}
			row.Series = append(row.Series, s)
		}
		out.Rows = append(out.Rows, row)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "loadsweep:", err)
			os.Exit(1)
		}
	} else {
		printTable(out)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "loadsweep: %d of %d points failed (see output for errors)\n",
			failed, len(res))
		os.Exit(1)
	}
}

func printTable(out sweepOut) {
	fmt.Printf("# %s traffic, %d-flit messages, %d-ary %d-cube; loads in flits/cycle/node",
		out.Pattern, out.Len, out.K, out.N)
	if out.Replicates > 1 {
		fmt.Printf("; mean±ci95 over %d replicates", out.Replicates)
	}
	fmt.Println()
	colw := 42
	if out.Replicates > 1 {
		colw = 66
	}
	fmt.Printf("%-9s", "load")
	for _, r := range regimes {
		fmt.Printf(" | %-*s", colw, r.name+" (thr, lat, p99, det%)")
	}
	fmt.Println()
	for _, row := range out.Rows {
		fmt.Printf("%-9.4f", row.Load)
		for _, s := range row.Series {
			if s.Failed {
				fmt.Printf(" | %-*s", colw, "FAILED: "+s.Error)
				continue
			}
			if out.Replicates > 1 {
				fmt.Printf(" | %8.4f±%.4f %9.1f±%.1f %7d %8.3f±%.3f%%",
					s.Throughput.Mean, s.Throughput.CI95,
					s.Latency.Mean, s.Latency.CI95,
					s.LatencyP99,
					s.PctDetected.Mean, s.PctDetected.CI95)
			} else {
				fmt.Printf(" | %8.4f %9.1f %7d %8.3f%%",
					s.Throughput.Mean, s.Latency.Mean, s.LatencyP99, s.PctDetected.Mean)
			}
		}
		fmt.Println()
	}
}
