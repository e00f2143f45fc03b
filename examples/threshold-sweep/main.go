// Threshold sweep: the experiment behind Tables 1 and 2 of the paper, in
// miniature. For each detection threshold, measure the percentage of
// messages detected as possibly deadlocked by the previous mechanism (PDM)
// and the paper's mechanism (NDM) under saturated uniform traffic, for
// short and long messages.
//
// The paper's two claims should be visible directly in the output:
//
//  1. At every threshold NDM detects roughly an order of magnitude fewer
//     (false) deadlocks than PDM.
//  2. PDM needs a much larger threshold for long messages than for short
//     ones, while NDM's useful threshold barely moves — so a single small
//     constant threshold works for NDM regardless of message length.
//
// Run with (about a minute; shrink -k/-measure for a faster look):
//
//	go run ./examples/threshold-sweep
package main

import (
	"flag"
	"fmt"
	"log"

	"wormnet"
)

func main() {
	base := wormnet.DefaultConfig()
	base.N, base.Load, base.Warmup, base.Measure = 2, 0, 2000, 15000
	base.AddFlags(flag.CommandLine, []string{"k", "n", "load", "measure"},
		map[string]string{"load": "offered load in flits/cycle/node (0 = auto near saturation)"})
	flag.Parse()

	if base.Load == 0 {
		// Saturation scales roughly with 2n links per node over the average
		// distance nk/4: use a load safely beyond it so the network runs
		// saturated, as in the paper's rightmost table columns.
		base.Load = 1.2 * float64(2*base.N) / (float64(base.N*base.K) / 4)
	}

	fmt.Printf("saturated uniform traffic on a %d-ary %d-cube, offered load %.3f flits/cycle/node\n\n", base.K, base.N, base.Load)
	fmt.Printf("%-10s %14s %14s %14s %14s\n", "threshold", "PDM s (16f)", "NDM s (16f)", "PDM l (64f)", "NDM l (64f)")

	for th := int64(2); th <= 256; th *= 2 {
		row := make([]float64, 0, 4)
		for _, lengths := range []wormnet.Lengths{wormnet.Len16, wormnet.Len64} {
			for _, mech := range []wormnet.Mechanism{wormnet.PDM, wormnet.NDM} {
				cfg := base
				cfg.Lengths, cfg.Mechanism, cfg.Threshold = lengths, mech, th
				res, err := wormnet.Run(cfg)
				if err != nil {
					log.Fatal(err)
				}
				row = append(row, res.PctMarked())
			}
		}
		// row = [PDM16, NDM16, PDM64, NDM64]
		fmt.Printf("Th %-7d %13.3f%% %13.3f%% %13.3f%% %13.3f%%\n", th, row[0], row[1], row[2], row[3])
	}
}
