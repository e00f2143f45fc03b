// Command compare prints the paper's headline comparison between the PDM
// and NDM detection mechanisms over the same workload grid: per-threshold
// worst-case detection percentages at the saturated load, their ratios, the
// mean improvement factor (the paper reports ~10x), and the message-length
// sensitivity of each mechanism.
//
// Two modes:
//
// File mode (the original): load two tables saved as JSON by `tables -json`:
//
//	tables -table 1 -relative -json > t1.json
//	tables -table 2 -relative -json > t2.json
//	compare t1.json t2.json
//
// Run mode (-run): measure both tables in-process on the parallel sweep
// harness, then compare:
//
//	compare -run -k 4 -n 2 -relative -workers 8 -replicates 3 \
//	        -checkpoint cmp.jsonl
//
// In run mode each (cell, replicate) is an independent simulation scheduled
// across -workers goroutines; seeds derive purely from (-seed, cell,
// replicate), so results are independent of -workers, and -checkpoint /
// -resume continue an interrupted measurement (one journal per table,
// suffixed .pdm and .ndm).
//
// Detection-latency mode (-detlat): measure, for an arbitrary list of
// mechanisms, the distribution of cycles from an oracle-confirmed deadlock
// to the mechanism's mark at one deadlock-prone operating point, together
// with each mechanism's false-positive rate and control-message overhead:
//
//	compare -detlat -mechs pdm,ndm,cmh -k 4 -n 2 -th 16 -measure 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"wormnet"
	"wormnet/internal/exp"
	"wormnet/internal/harness"
	"wormnet/internal/sim"
	"wormnet/internal/stats"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "compare: "+format+"\n", args...)
	os.Exit(2)
}

func load(path string) (*exp.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return exp.DecodeJSON(f)
}

func main() {
	var (
		run      = flag.Bool("run", false, "measure both tables now instead of loading JSON files")
		pdmTable = flag.Int("pdm-table", 1, "paper table measured for the PDM side (run mode)")
		ndmTable = flag.Int("ndm-table", 2, "paper table measured for the NDM side (run mode)")
		k        = flag.Int("k", 8, "radix (run mode)")
		n        = flag.Int("n", 3, "dimensions (run mode)")
		warmup   = flag.Int64("warmup", 5000, "warm-up cycles per cell (run mode)")
		measure  = flag.Int64("measure", 30000, "measured cycles per cell (run mode)")
		seed     = flag.Uint64("seed", 1, "base random seed (run mode)")
		relative = flag.Bool("relative", false, "rescale the paper's rates to measured saturation (run mode)")
		detlat   = flag.Bool("detlat", false, "measure per-mechanism detection-latency histograms at one deadlock-prone operating point")
		dlMechs  = flag.String("mechs", "pdm,ndm", "comma-separated detection mechanisms to compare (detlat mode): "+strings.Join(detLatMechs(), "|"))
		dlLoad   = flag.Float64("load", 2.0, "offered load in flits/cycle/node (detlat mode)")
		dlVCs    = flag.Int("vcs", 1, "virtual channels per physical channel (detlat mode)")
		dlTh     = flag.Int64("th", 16, "detection threshold in cycles (detlat mode)")
	)
	var sweep harness.Sweep
	sweep.AddFlags(flag.CommandLine, "replicates", map[string]string{
		"workers":    "concurrent simulations, 0 = GOMAXPROCS (run mode)",
		"replicates": "independently seeded runs per cell (run mode)",
		"checkpoint": "checkpoint journal path prefix (run mode)",
		"resume":     "resume from the -checkpoint journals (run mode)",
		"quiet":      "suppress progress output (run mode)",
	})
	flag.Parse()
	opt, err := sweep.Options()
	if err != nil {
		fail("%v", err)
	}
	opt.BaseSeed = *seed

	if *detlat {
		switch {
		case len(flag.Args()) > 0:
			fail("unexpected arguments %q in -detlat mode", flag.Args())
		case *run:
			fail("-detlat and -run are mutually exclusive")
		case *k < 2 || *n < 1:
			fail("invalid topology: %d-ary %d-cube (need -k >= 2, -n >= 1)", *k, *n)
		case *warmup < 0 || *measure <= 0:
			fail("need -warmup >= 0 and -measure > 0, got %d and %d", *warmup, *measure)
		}
		mechs, err := parseMechs(*dlMechs)
		if err != nil {
			fail("%v", err)
		}
		// The detlat sweep is one short batch: it keeps no journal.
		opt.Journal, opt.Resume = "", false
		runDetLat(detLatParams{
			k: *k, n: *n, vcs: *dlVCs, load: *dlLoad, th: *dlTh,
			mechs:  mechs,
			warmup: *warmup, measure: *measure,
		}, opt)
		return
	}

	// Flags that only make sense in another mode must not be silently
	// ignored: -detlat-only flags are rejected in run mode, and every flag
	// is rejected in file mode.
	if *run {
		if bad := misused(flag.CommandLine, detlatOnly); len(bad) > 0 {
			fail("%v only apply with -detlat", bad)
		}
	} else {
		if bad := misused(flag.CommandLine, notInFileMode); len(bad) > 0 {
			fail("%v only apply with -run or -detlat (file mode just loads two JSON tables)", bad)
		}
		if len(flag.Args()) != 2 {
			fmt.Fprintln(os.Stderr, "usage: compare <pdm.json> <ndm.json>")
			fmt.Fprintln(os.Stderr, "       compare -run [options]   (see -h)")
			os.Exit(2)
		}
	}

	var pdm, ndm *exp.Result
	if *run {
		switch {
		case len(flag.Args()) > 0:
			fail("unexpected arguments %q in -run mode", flag.Args())
		case *k < 2 || *n < 1:
			fail("invalid topology: %d-ary %d-cube (need -k >= 2, -n >= 1)", *k, *n)
		case *warmup < 0 || *measure <= 0:
			fail("need -warmup >= 0 and -measure > 0, got %d and %d", *warmup, *measure)
		}
		pdm = measureTable(*pdmTable, "pdm", *k, *n, *warmup, *measure, *relative, opt)
		ndm = measureTable(*ndmTable, "ndm", *k, *n, *warmup, *measure, *relative, opt)
	} else {
		if pdm, err = load(flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		if ndm, err = load(flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
	}

	if err := exp.CompareReport(os.Stdout, pdm, ndm); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("smallest threshold with <= 0.1% detections at the saturated load, per message size:")
	for _, side := range []struct {
		name string
		r    *exp.Result
	}{{"PDM", pdm}, {"NDM", ndm}} {
		fmt.Printf("  %s: ", side.name)
		sens := exp.LengthSensitivity(side.r, 0.1)
		for _, size := range side.r.Table.Sizes {
			th := sens[size.Key]
			if th < 0 {
				fmt.Printf("%s=never ", size.Key)
			} else {
				fmt.Printf("%s=%d ", size.Key, th)
			}
		}
		fmt.Println()
	}
}

// misused lists the flags set on fs that the selected mode cannot honor.
func misused(fs *flag.FlagSet, wrong func(name string) bool) []string {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if wrong(f.Name) {
			bad = append(bad, "-"+f.Name)
		}
	})
	return bad
}

// detlatOnly reports the flags that apply only with -detlat.
func detlatOnly(name string) bool {
	return slices.Contains([]string{"load", "vcs", "th", "mechs"}, name)
}

// notInFileMode reports the flags file mode cannot honor. It only loads two
// JSON tables, so that is every flag but the two mode switches themselves —
// whatever the shared helpers register.
func notInFileMode(name string) bool { return name != "run" && name != "detlat" }

// measureTable runs one paper table on the harness as h describes; the
// journal and the observation dumps of the two tables are kept apart by
// suffix.
func measureTable(id int, suffix string, k, n int, warmup, measure int64, relative bool, h harness.Options) *exp.Result {
	tbl, err := exp.PaperTable(id)
	if err != nil {
		fail("%v", err)
	}
	opt := exp.DefaultOptions()
	opt.K, opt.N = k, n
	opt.Warmup, opt.Measure = warmup, measure
	opt.Seed = h.BaseSeed
	opt.RelativeRates = relative
	opt.Workers = h.Workers
	opt.Repeats = h.Replicates
	opt.Resume = h.Resume
	opt.Observe = h.Observe.WithSuffix("-" + suffix)
	if h.Journal != "" {
		opt.Journal = h.Journal + "." + suffix
	}
	if h.Progress != nil {
		fmt.Fprintf(os.Stderr, "compare: measuring table %d (%s, %s)\n",
			tbl.ID, tbl.Mechanism, tbl.PatternName)
		opt.ProgressWriter = h.Progress
	}
	res, err := exp.Run(tbl, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	return res
}

// detLatMechs lists the mechanisms -detlat accepts: every one but "none",
// because with no detector there is no mark to measure a latency to.
func detLatMechs() []string {
	names := sim.MechanismNames()
	return names[:len(names)-1]
}

// parseMechs validates a comma-separated mechanism list: every name must be
// known, and duplicates are rejected because the mechanism doubles as the
// harness point key.
func parseMechs(s string) ([]wormnet.Mechanism, error) {
	known := detLatMechs()
	var mechs []wormnet.Mechanism
	for _, part := range strings.Split(s, ",") {
		m := wormnet.Mechanism(strings.TrimSpace(part))
		switch {
		case m == "":
			return nil, fmt.Errorf("empty mechanism in -mechs %q", s)
		case !slices.Contains(known, string(m)):
			return nil, fmt.Errorf("unknown mechanism %q in -mechs (available: %s)",
				m, strings.Join(known, ", "))
		case slices.Contains(mechs, m):
			return nil, fmt.Errorf("duplicate mechanism %q in -mechs", m)
		}
		mechs = append(mechs, m)
	}
	return mechs, nil
}

type detLatParams struct {
	k, n, vcs       int
	load            float64
	th              int64
	mechs           []wormnet.Mechanism
	warmup, measure int64
}

// runDetLat measures the detection-latency distribution — cycles from the
// omniscient oracle first seeing a message deadlocked (OracleEvery=1) until
// the mechanism marks it — for each requested mechanism at one
// deadlock-prone operating point, and prints the histograms plus each
// mechanism's accuracy (false-positive rate) and control-message overhead
// (probe flits, and the share of aggregate link bandwidth they consumed —
// zero for the router-local mechanisms).
func runDetLat(p detLatParams, opt harness.Options) {
	var pts []harness.Point
	for _, mech := range p.mechs {
		cfg := wormnet.DefaultConfig()
		cfg.K, cfg.N = p.k, p.n
		cfg.VirtualChannels = p.vcs
		cfg.Pattern = wormnet.Uniform
		cfg.Lengths = wormnet.Len16
		cfg.Load = p.load
		cfg.Mechanism = mech
		cfg.Threshold = p.th
		cfg.InjectionLimit = -1 // saturate freely: deadlocks must actually form
		cfg.Warmup, cfg.Measure = p.warmup, p.measure
		cfg.OracleEvery = 1 // exact oracle-first-deadlock stamps
		sc, err := cfg.SimConfig()
		if err != nil {
			fail("%v", err)
		}
		pts = append(pts, harness.Point{Key: string(mech), Config: sc})
	}
	res, err := harness.Run(pts, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}

	fmt.Printf("# detection latency: cycles from oracle-confirmed deadlock to the mechanism's mark\n")
	fmt.Printf("# %d-ary %d-cube, %d VC(s), uniform 16-flit traffic, load %.3g flits/cycle/node, threshold %d, oracle every cycle\n",
		p.k, p.n, p.vcs, p.load, p.th)
	fmt.Printf("# %d measured cycles after %d warm-up, %d replicate(s), base seed %d\n",
		p.measure, p.warmup, opt.Replicates, opt.BaseSeed)
	fmt.Println()
	fmt.Printf("%-9s %9s %9s %7s %7s %7s %7s %9s %9s %7s %12s %9s\n",
		"mech", "samples", "mean", "p50", "p90", "p99", "max", "true", "false", "fp%", "probe-flits", "probe-bw%")
	hists := make([]*stats.Histogram, len(pts))
	for i, pr := range res {
		if !pr.OK() {
			fail("point %s failed: %s", pr.Key, pr.Err())
		}
		h := pr.MergedDetectLatency()
		hists[i] = h
		var trueMarks, falseMarks, probeFlits, linkCycles int64
		for _, r := range pr.Completed() {
			trueMarks += r.TrueMarked
			falseMarks += r.FalseMarked
			probeFlits += r.ProbeFlits
			linkCycles += r.Cycles * int64(r.NetLinks)
		}
		fpPct := 0.0
		if trueMarks+falseMarks > 0 {
			fpPct = 100 * float64(falseMarks) / float64(trueMarks+falseMarks)
		}
		bwPct := 0.0
		if linkCycles > 0 {
			bwPct = 100 * float64(probeFlits) / float64(linkCycles)
		}
		fmt.Printf("%-9s %9d %9.1f %7d %7d %7d %7d %9d %9d %7.2f %12d %9.4f\n",
			pr.Key, h.Count(), h.Mean(),
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max(),
			trueMarks, falseMarks, fpPct, probeFlits, bwPct)
	}
	for i, pr := range res {
		if hists[i].Count() == 0 {
			continue
		}
		fmt.Printf("\n%s latency histogram:\n%s", pr.Key, hists[i].Bars(48))
	}
}
