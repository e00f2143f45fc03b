// Command tables regenerates the evaluation tables of López, Martínez &
// Duato, "A Very Efficient Distributed Deadlock Detection Mechanism for
// Wormhole Networks" (HPCA 1998): the percentage of messages detected as
// possibly deadlocked for each mechanism, traffic pattern, message length,
// load and threshold.
//
//	tables -table 2                                         # full scale, 512 nodes
//	tables -table 1,2 -k 8 -n 2 -relative -measure 20000    # 64 nodes, rescaled rates
//
// -table takes a comma list; 0 runs the paper's seven tables (1-7), and the
// CMH extension Table 8 runs only when named. When the tables in hand
// include Tables 1 and 2, the text output ends with the paper's headline
// comparison: PDM and NDM worst-case detections at the saturated load per
// threshold, their ratio (the paper reports ~10x) and each mechanism's
// message-length sensitivity. Each (cell, repeat) is an independent
// simulation on -workers goroutines, seeded purely from (-seed, cell,
// repeat), so results do not depend on -workers; -checkpoint / -resume
// continue an interrupted measurement (one journal per table, suffix .t<N>).
//
// Positional arguments are files written by -json. Their tables are loaded
// instead of measured, then rendered and compared the same way:
//
//	tables -table 1,2 -k 4 -n 2 -relative -json > t.json && tables t.json
//
// -detlat measures, for a list of mechanisms at one deadlock-prone operating
// point, the cycles from an oracle-confirmed deadlock to the mechanism's
// mark, with each mechanism's false-positive rate and probe overhead:
//
//	tables -detlat -mechs pdm,ndm,cmh -k 4 -n 2 -th 16 -measure 20000
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"wormnet/internal/exp"
	"wormnet/internal/harness"
	"wormnet/internal/sim"
	"wormnet/internal/spec"
	"wormnet/internal/stats"
)

// config holds the parsed command line.
type config struct {
	tables, mechs            string
	relative, asJSON, detlat bool
	// point is the -detlat operating point; the tables take its network,
	// phases, seed and promotion policy.
	point spec.Run
	sweep harness.Sweep
}

// addFlags registers every flag of the command on fs.
func addFlags(fs *flag.FlagSet) *config {
	c := &config{point: spec.Default()}
	// -detlat saturates a single-VC network with no injection limit, so
	// deadlocks actually form, and stamps them with the oracle every cycle;
	// -mechs names the detectors it runs in turn.
	c.point.VirtualChannels, c.point.Load, c.point.Threshold = 1, 2.0, 16
	c.point.InjectionLimit, c.point.OracleEvery, c.point.Mechanism = -1, 1, spec.NoDetection
	fs.StringVar(&c.tables, "table", "0", "comma-separated tables to reproduce (1-8); 0 = the paper's seven (1-7), 8 runs only when named")
	c.point.AddFlags(fs, []string{"k", "n", "warmup", "measure", "seed", "selective", "load", "vcs", "th"}, map[string]string{
		"load": "offered load in flits/cycle/node (detlat mode)",
		"vcs":  "virtual channels per physical channel (detlat mode)",
		"th":   "detection threshold in cycles (detlat mode)",
	})
	fs.BoolVar(&c.relative, "relative", false, "rescale the paper's rates to this network's measured saturation throughput")
	fs.BoolVar(&c.asJSON, "json", false, "emit JSON instead of the text table")
	fs.BoolVar(&c.detlat, "detlat", false, "measure per-mechanism detection-latency histograms at one deadlock-prone operating point")
	fs.StringVar(&c.mechs, "mechs", "pdm,ndm", "comma-separated detection mechanisms to compare (detlat mode): "+strings.Join(detLatMechs(), "|"))
	c.sweep.AddFlags(fs, "repeats", map[string]string{
		"workers":    "concurrent cell simulations (0 = GOMAXPROCS); results are identical for any value",
		"repeats":    "independently seeded runs per cell, reported as mean±ci95",
		"checkpoint": "JSONL checkpoint journal path prefix (per-table suffix .t<N> is appended)",
		"resume":     "resume completed cells from the -checkpoint journals",
		"quiet":      "suppress per-cell progress",
	})
	return c
}

// refusal returns the flags the selected mode cannot honor and why. File
// mode (positional arguments) only loads tables, so it refuses every flag,
// including whatever the shared sweep helpers register later.
func refusal(detlat, files bool) (wrong func(name string) bool, why string) {
	only, why := []string{"mechs", "load", "vcs", "th"}, "only apply with -detlat"
	switch {
	case detlat:
		only, why = []string{"table", "relative", "selective", "json", "checkpoint", "resume"}, "do not apply with -detlat"
	case files:
		return func(string) bool { return true }, "do not apply to saved tables"
	}
	return func(name string) bool { return slices.Contains(only, name) }, why
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

// fail reports a usage error and exits 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tables: "+format+"\n", args...)
	os.Exit(2)
}

// die reports a failed measurement or an unreadable input and exits 1.
func die(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}

func main() {
	c := addFlags(flag.CommandLine)
	flag.Parse()
	wrong, why := refusal(c.detlat, flag.NArg() > 0)
	if bad := misused(flag.CommandLine, wrong); len(bad) > 0 {
		fail("%v %s", bad, why)
	}
	opt, err := c.sweep.Options()
	if err == nil {
		err = c.point.Validate()
	}
	switch {
	case err != nil:
		fail("%v", err)
	case c.detlat && flag.NArg() > 0:
		fail("unexpected arguments %q in -detlat mode", flag.Args())
	}

	var done []*exp.Result
	show := func(r *exp.Result) {
		done = append(done, r)
		if c.asJSON {
			if err := r.EncodeJSON(os.Stdout); err != nil {
				die(err)
			}
			return
		}
		r.Format(os.Stdout)
		fmt.Println()
	}
	switch {
	case c.detlat:
		mechs, err := parseMechs(c.mechs)
		if err != nil {
			fail("%v", err)
		}
		opt.BaseSeed = c.point.Seed
		runDetLat(c, mechs, opt)
		return
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			rs, err := load(path)
			if err != nil {
				die(err)
			}
			for _, r := range rs {
				show(r)
			}
		}
	default:
		tbls, err := parseTables(c.tables)
		if err != nil {
			fail("%v", err)
		}
		for _, tbl := range tbls {
			show(c.measureTable(tbl))
		}
	}
	if !c.asJSON {
		if err := report(os.Stdout, done); err != nil {
			die(err)
		}
	}
}

// parseTables resolves -table: a comma list of table IDs, or 0 alone for
// the paper's seven tables.
func parseTables(s string) ([]exp.Table, error) {
	if s == "0" {
		s = "1,2,3,4,5,6,7"
	}
	var tbls []exp.Table
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad table %q in -table %q", part, s)
		}
		tbl, err := exp.PaperTable(id)
		if err != nil {
			return nil, fmt.Errorf("-table %q: %v", s, err)
		}
		tbls = append(tbls, tbl)
	}
	return tbls, nil
}

// measureTable runs one paper table on the harness. It is the one builder
// of exp.Options: a per-table suffix keeps each table's journal and
// observation dumps apart from the next table's.
func (c *config) measureTable(tbl exp.Table) *exp.Result {
	opt := exp.DefaultOptions()
	p := &c.point
	opt.K, opt.N, opt.Warmup, opt.Measure = p.K, p.N, p.Warmup, p.Measure
	opt.Seed, opt.SelectivePromotion = p.Seed, p.SelectivePromotion
	opt.RelativeRates = c.relative
	opt.Workers = c.sweep.Workers
	opt.Repeats = c.sweep.Replicates
	opt.Resume = c.sweep.Resume
	suffix := fmt.Sprintf(".t%d", tbl.ID)
	opt.Observe = c.sweep.Observe.WithSuffix(suffix)
	if c.sweep.Checkpoint != "" {
		opt.Journal = c.sweep.Checkpoint + suffix
	}
	start := time.Now()
	if !c.sweep.Quiet {
		opt.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rtable %d: %d/%d cells (%.0fs)",
				tbl.ID, done, total, time.Since(start).Seconds())
		}
	}
	res, err := exp.Run(tbl, opt)
	if !c.sweep.Quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		die(err)
	}
	return res
}

// load reads the tables in a file written by -json, one per measured
// table; errors name the file.
func load(path string) ([]*exp.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []*exp.Result
	for dec := json.NewDecoder(f); len(rs) == 0 || dec.More(); {
		var raw json.RawMessage
		err := dec.Decode(&raw)
		var r *exp.Result
		if err == nil {
			r, err = exp.DecodeJSON(bytes.NewReader(raw))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// report prints the paper's headline PDM-vs-NDM comparison when the tables
// in hand include Table 1 (PDM) and Table 2 (NDM), and nothing otherwise.
func report(w io.Writer, done []*exp.Result) error {
	var pdm, ndm *exp.Result
	for _, r := range done {
		switch r.Table.ID {
		case 1:
			pdm = r
		case 2:
			ndm = r
		}
	}
	if pdm == nil || ndm == nil {
		return nil
	}
	if err := exp.CompareReport(w, pdm, ndm); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nsmallest threshold with <= 0.1% detections at the saturated load, per message size:")
	for _, r := range []*exp.Result{pdm, ndm} {
		fmt.Fprintf(w, "  %s: ", r.Table.Mechanism)
		sens := exp.LengthSensitivity(r, 0.1)
		for _, size := range r.Table.Sizes {
			if th := sens[size.Key]; th < 0 {
				fmt.Fprintf(w, "%s=never ", size.Key)
			} else {
				fmt.Fprintf(w, "%s=%d ", size.Key, th)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
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
func parseMechs(s string) ([]spec.Mechanism, error) {
	known := detLatMechs()
	var mechs []spec.Mechanism
	for _, part := range strings.Split(s, ",") {
		m := spec.Mechanism(strings.TrimSpace(part))
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

// runDetLat measures the detection-latency distribution — cycles from the
// omniscient oracle first seeing a message deadlocked (OracleEvery=1) until
// the mechanism marks it — for each requested mechanism at one
// deadlock-prone operating point, and prints the histograms plus each
// mechanism's accuracy (false-positive rate) and control-message overhead
// (probe flits, and the share of aggregate link bandwidth they consumed —
// zero for the router-local mechanisms). The sweep is one short batch: it
// keeps no journal.
func runDetLat(c *config, mechs []spec.Mechanism, opt harness.Options) {
	var pts []harness.Point
	for _, mech := range mechs {
		r := c.point
		r.Mechanism = mech
		sc, err := r.SimConfig()
		if err != nil {
			fail("%v", err)
		}
		pts = append(pts, harness.Point{Key: string(mech), Config: sc})
	}
	res, err := harness.Run(pts, opt)
	if err != nil {
		die(err)
	}

	fmt.Printf("# detection latency: cycles from oracle-confirmed deadlock to the mechanism's mark\n")
	p := &c.point
	fmt.Printf("# %d-ary %d-cube, %d VC(s), uniform 16-flit traffic, load %.3g flits/cycle/node, threshold %d, oracle every cycle\n",
		p.K, p.N, p.VirtualChannels, p.Load, p.Threshold)
	fmt.Printf("# %d measured cycles after %d warm-up, %d replicate(s), base seed %d\n",
		p.Measure, p.Warmup, opt.Replicates, opt.BaseSeed)
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
