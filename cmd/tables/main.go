// Command tables regenerates the evaluation tables (1 through 7) of López,
// Martínez & Duato, "A Very Efficient Distributed Deadlock Detection
// Mechanism for Wormhole Networks" (HPCA 1998): the percentage of messages
// detected as possibly deadlocked for each mechanism, traffic pattern,
// message length, load and threshold.
//
// Full-scale reproduction (512-node 8-ary 3-cube, the paper's setting):
//
//	tables -table 2
//
// Quick reduced-scale reproduction (64-node 8-ary 2-cube, rates rescaled
// to the measured saturation point of the smaller network):
//
//	tables -table 2 -k 8 -n 2 -relative -measure 20000
//
// -table 0 runs all seven tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wormnet"
	"wormnet/internal/harness"
)

func main() {
	var (
		table    = flag.Int("table", 0, "table to reproduce (1-8); 0 = all")
		k        = flag.Int("k", 8, "radix of the k-ary n-cube")
		n        = flag.Int("n", 3, "dimensions of the k-ary n-cube")
		warmup   = flag.Int64("warmup", 5000, "warm-up cycles per cell")
		measure  = flag.Int64("measure", 30000, "measured cycles per cell")
		seed     = flag.Uint64("seed", 1, "random seed")
		relative = flag.Bool("relative", false, "rescale the paper's rates to this network's measured saturation throughput")
		sel      = flag.Bool("selective", false, "use the selective P->G promotion variant of ndm")
		asJSON   = flag.Bool("json", false, "emit JSON instead of the text table")
	)
	var sweep harness.Sweep
	sweep.AddFlags(flag.CommandLine, "repeats", map[string]string{
		"workers":    "concurrent cell simulations (0 = GOMAXPROCS); results are identical for any value",
		"repeats":    "independently seeded runs per cell, reported as mean±ci95",
		"checkpoint": "JSONL checkpoint journal path prefix (per-table suffix .t<N> is appended)",
		"resume":     "resume completed cells from the -checkpoint journals",
		"quiet":      "suppress per-cell progress",
	})
	flag.Parse()

	if len(flag.Args()) > 0 {
		fmt.Fprintf(os.Stderr, "tables: unexpected arguments %q (tables takes only flags)\n", flag.Args())
		os.Exit(2)
	}
	if _, err := sweep.Options(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(2)
	}

	ids := []int{1, 2, 3, 4, 5, 6, 7}
	if *table != 0 {
		ids = []int{*table}
	}
	for _, id := range ids {
		opt := wormnet.TableOptions{
			K: *k, N: *n,
			Warmup:             *warmup,
			Measure:            *measure,
			Seed:               *seed,
			RelativeRates:      *relative,
			SelectivePromotion: *sel,
			Workers:            sweep.Workers,
			Repeats:            sweep.Replicates,
			Resume:             sweep.Resume,
			// Per-table suffix keeps one table's dumps apart from the next.
			Observe: sweep.Observe.WithSuffix(fmt.Sprintf(".t%d", id)),
		}
		if sweep.Checkpoint != "" {
			opt.Journal = fmt.Sprintf("%s.t%d", sweep.Checkpoint, id)
		}
		start := time.Now()
		if !sweep.Quiet {
			opt.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\rtable %d: %d/%d cells (%.0fs)",
					id, done, total, time.Since(start).Seconds())
			}
		}
		res, err := wormnet.RunPaperTable(id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "\ntables:", err)
			os.Exit(1)
		}
		if !sweep.Quiet {
			fmt.Fprintln(os.Stderr)
		}
		if *asJSON {
			if err := res.RenderJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
				os.Exit(1)
			}
			continue
		}
		res.Render(os.Stdout)
		fmt.Println()
	}
}
