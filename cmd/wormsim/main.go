// Command wormsim runs a single wormhole-network simulation and prints its
// metrics, including the percentage of messages detected as possibly
// deadlocked — the figure of merit of López, Martínez & Duato (HPCA 1998).
//
// Examples:
//
//	wormsim -k 8 -n 3 -load 0.514 -pattern uniform -len 16 -mech ndm -th 32
//	wormsim -k 4 -n 2 -load 2.0 -vcs 1 -mech pdm -th 16 -inject-limit -1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wormnet"
	"wormnet/internal/sim"
)

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "wormsim:", msg)
	os.Exit(2)
}

func main() {
	cfg := wormnet.DefaultConfig()
	cfg.AddFlags(flag.CommandLine, []string{"k", "n", "vcs", "buf", "pattern", "len", "load", "th", "selective", "seed", "warmup", "measure"}, nil)
	flag.IntVar(&cfg.Ports, "ports", cfg.Ports, "injection/delivery ports per node")
	flag.IntVar(&cfg.LocalityRadius, "locality-radius", cfg.LocalityRadius, "radius of the locality pattern")
	flag.Float64Var(&cfg.HotFraction, "hot-fraction", cfg.HotFraction, "fraction of traffic to the hot node")
	flag.StringVar((*string)(&cfg.Mechanism), "mech", string(cfg.Mechanism), "detection mechanism: "+strings.Join(sim.MechanismNames(), "|"))
	flag.Int64Var(&cfg.T1, "t1", cfg.T1, "ndm short threshold t1")
	flag.StringVar((*string)(&cfg.ProbeTransport), "probe-transport", string(cfg.ProbeTransport), "cmh probe transport: steal-idle|ctrl-vc")
	flag.StringVar((*string)(&cfg.ProbeVictim), "probe-victim", string(cfg.ProbeVictim), "cmh victim selection: local|oldest")
	flag.IntVar(&cfg.ProbeMaxHops, "probe-hops", cfg.ProbeMaxHops, "cmh probe hop cap")
	flag.StringVar((*string)(&cfg.Recovery), "recovery", string(cfg.Recovery), "recovery style: progressive|regressive")
	flag.IntVar(&cfg.InjectionLimit, "inject-limit", cfg.InjectionLimit, "injection limitation threshold (busy output VCs); negative disables")
	flag.Int64Var(&cfg.OracleEvery, "oracle-every", 0, "run the global deadlock oracle every N cycles (0 = only at detections)")
	observe := flag.Int64("observe", 0, "print a fabric occupancy summary (and 2-D heatmap) every N cycles")
	flag.StringVar(&cfg.TracePath, "trace", "", "write flight-recorder events to this JSONL file")
	flag.IntVar(&cfg.TraceLast, "trace-last", 0, "keep only the last N events in a ring, written only if a detection fires or the run fails (0 streams everything)")
	flag.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "serve live Prometheus /metrics, JSON /status and /debug/pprof on this address while the run is in flight (\":0\" picks a free port, printed to stderr)")
	flag.Int64Var(&cfg.MetricsWindow, "metrics-window", 0, "metrics sampling window in cycles (default 256; requires -metrics-addr or -series)")
	flag.StringVar(&cfg.SeriesPath, "series", "", "write the sampled time series to this file after the run (.csv for CSV, anything else JSONL)")
	flag.StringVar(&cfg.ForensicsPath, "forensics", "", "reconstruct deadlock episodes online and write the incident report (JSONL) to this file after the run")
	flag.Parse()

	metered := cfg.MetricsAddr != "" || cfg.SeriesPath != ""
	if cfg.MetricsAddr != "" {
		cfg.MetricsReady = func(addr string) {
			fmt.Fprintf(os.Stderr, "wormsim: metrics listening on http://%s/metrics\n", addr)
		}
	}
	switch {
	case *observe < 0:
		fail(fmt.Sprintf("-observe must be >= 0, got %d", *observe))
	case cfg.TraceLast < 0:
		fail(fmt.Sprintf("-trace-last must be >= 0, got %d", cfg.TraceLast))
	case cfg.MetricsWindow < 0:
		fail(fmt.Sprintf("-metrics-window must be >= 0, got %d", cfg.MetricsWindow))
	case cfg.TraceLast > 0 && cfg.TracePath == "":
		fail("-trace-last requires -trace")
	case cfg.MetricsWindow > 0 && !metered:
		fail("-metrics-window requires -metrics-addr or -series")
	case cfg.TracePath != "" && *observe > 0:
		fail("-trace cannot be combined with -observe")
	case metered && *observe > 0:
		fail("-metrics-addr/-series cannot be combined with -observe")
	case cfg.ForensicsPath != "" && *observe > 0:
		fail("-forensics cannot be combined with -observe")
	}

	var res *wormnet.Result
	var err error
	if *observe > 0 {
		res, err = wormnet.Observe(cfg, *observe, func(cycle int64, summary, heatmap string) {
			fmt.Fprintf(os.Stderr, "cycle %d: %s\n", cycle, summary)
			if cfg.N == 2 {
				fmt.Fprint(os.Stderr, heatmap)
			}
		})
	} else {
		res, err = wormnet.Run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormsim:", err)
		os.Exit(1)
	}

	fmt.Printf("network:        %d-ary %d-cube, %d VCs x %d flits, %d ports\n",
		cfg.K, cfg.N, cfg.VirtualChannels, cfg.BufferFlits, cfg.Ports)
	fmt.Printf("workload:       %s, load %.4g flits/cycle/node\n", cfg.Pattern, cfg.Load)
	fmt.Printf("detector:       %s, recovery %s\n", res.DetectorName, cfg.Recovery)
	fmt.Printf("cycles:         %d measured (after %d warm-up)\n", cfg.Measure, cfg.Warmup)
	fmt.Println()
	fmt.Printf("generated:      %d messages\n", res.Generated)
	fmt.Printf("delivered:      %d messages (%d flits)\n", res.Delivered, res.DeliveredFlits)
	fmt.Printf("throughput:     %.4f flits/cycle/node\n", res.Throughput())
	fmt.Printf("latency:        avg %.1f cycles (net %.1f, max %d)\n",
		res.AvgLatency(), res.AvgNetLatency(), res.MaxLatency)
	fmt.Println()
	fmt.Printf("detected:       %d messages (%.3f%% of delivered)\n", res.Marked, res.PctMarked())
	fmt.Printf("  true:         %d (actual deadlock confirmed by the oracle)\n", res.TrueMarked)
	fmt.Printf("  false:        %d (%.3f%% of delivered)\n", res.FalseMarked, res.PctFalseMarked())
	fmt.Printf("recovery:       %d absorbed, %d aborted, %d re-injected, %d delivered by recovery\n",
		res.Absorbed, res.Aborted, res.Reinjected, res.RecoveredDelivered)
	if res.DetectLatencySamples > 0 {
		fmt.Printf("detect latency: p50 %d p99 %d cycles over %d true detections (oracle to mark)\n",
			res.DetectLatencyP50, res.DetectLatencyP99, res.DetectLatencySamples)
	}
	if res.DTFlagCycleSum > 0 {
		fmt.Printf("dt occupancy:   %.3f channels with DT set per measured cycle\n", res.AvgDTFlags())
	}
	if res.ProbesEmitted > 0 || res.ProbeFlits > 0 {
		fmt.Printf("probes:         %d emitted, %d forwarded, %d returned, %d dropped\n",
			res.ProbesEmitted, res.ProbesForwarded, res.ProbesReturned, res.ProbesDropped)
		fmt.Printf("probe traffic:  %d control flits (%.4f%% of link capacity)\n",
			res.ProbeFlits, res.ProbeBandwidthPct())
	}
	if res.OracleRuns > 0 {
		fmt.Printf("oracle:         %d runs, %d saw deadlock (max set %d)\n",
			res.OracleRuns, res.DeadlockCycles, res.MaxDeadlockSet)
	}
	if res.Marked > 0 {
		fmt.Printf("marks/cycle:    ")
		for k := 1; k < len(res.MarksPerCycleHist); k++ {
			if res.MarksPerCycleHist[k] > 0 {
				fmt.Printf("%dx%d ", k, res.MarksPerCycleHist[k])
			}
		}
		if res.MarksPerCycleHist[0] > 0 {
			fmt.Printf(">=%dx%d", len(res.MarksPerCycleHist), res.MarksPerCycleHist[0])
		}
		fmt.Println()
	}
}
