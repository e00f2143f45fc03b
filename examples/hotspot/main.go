// Hot-spot study: the workload of Table 7. Five percent of all messages
// target a single node, which congests its neighborhood long before the
// rest of the network saturates. Congestion trees around the hot spot look
// a lot like deadlock to naive detectors — this is the hardest pattern in
// the paper's evaluation (the only one where NDM's false-detection rate at
// threshold 32 exceeds 0.16%).
//
// The example sweeps load from light to saturated and shows, side by side,
// what a crude header-blocked timeout, PDM and NDM each report, plus what
// the omniscient oracle says actually happened.
//
// Run with:
//
//	go run ./examples/hotspot
package main

import (
	"flag"
	"fmt"
	"log"

	"wormnet"
)

func main() {
	run := wormnet.DefaultConfig()
	run.N, run.Pattern, run.Threshold, run.Warmup, run.Measure = 2, wormnet.HotSpot, 32, 3000, 15000
	run.AddFlags(flag.CommandLine, []string{"k", "n", "measure"}, nil)
	flag.Parse()

	// Loads are fractions of the uniform saturation estimate; the hot spot
	// saturates the network at a small fraction of that.
	base := float64(2*run.N) / (float64(run.N*run.K) / 4)
	fmt.Printf("hot-spot traffic (5%% to node 0) on a %d-ary %d-cube\n\n", run.K, run.N)
	fmt.Printf("%-10s %12s %12s %12s %12s %12s\n",
		"load", "hdr-block%", "PDM%", "NDM%", "NDM true", "throughput")

	for _, frac := range []float64{0.1, 0.15, 0.2, 0.25, 0.3} {
		load := base * frac
		var pcts []float64
		var ndmTrue int64
		var thr float64
		for _, mech := range []wormnet.Mechanism{wormnet.HeaderBlock, wormnet.PDM, wormnet.NDM} {
			cfg := run
			cfg.Load, cfg.Mechanism = load, mech
			res, err := wormnet.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			pcts = append(pcts, res.PctMarked())
			if mech == wormnet.NDM {
				ndmTrue = res.TrueMarked
				thr = res.Throughput()
			}
		}
		fmt.Printf("%-10.4f %11.3f%% %11.3f%% %11.3f%% %12d %12.4f\n",
			load, pcts[0], pcts[1], pcts[2], ndmTrue, thr)
	}

	fmt.Println("\nthe crude timeout misfires on hot-spot congestion; NDM stays close to")
	fmt.Println("the oracle's truth because blocked messages behind the hot spot hold P")
	fmt.Println("flags and never become eligible to detect.")
}
