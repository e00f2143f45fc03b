package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// suiteFile is what `suite -out` writes and `compare` reads.
type suiteFile struct {
	Seed      uint64     `json:"seed"`
	Reps      int        `json:"reps"`
	Seconds   float64    `json:"seconds"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Workloads []suiteRow `json:"workloads"`
}

// suiteRow is one workload: every rep's end-to-end values, the traced run's
// per-layer values, and the digest that must match across reps and commits.
type suiteRow struct {
	Workload string            `json:"workload"`
	Digest   string            `json:"sim_digest"`
	Legs     map[string]string `json:"leg_digests,omitempty"`
	// Contended marks a row whose numbers the host disturbed: a serial
	// workload that got less than 0.9 of a core, or reps further apart than
	// the metric's bound. The row is still reported.
	Contended bool                 `json:"contended"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
}

// parallelWorkloads use more than one core by design, so a CPU share below
// one core per worker is not evidence of contention for them.
var parallelWorkloads = map[string]bool{"torus512_sat_shards2": true, "table2_small": true}

// child runs one workload in a fresh process, so that peak RSS is the
// workload's own, and returns its result and info lines.
func child(o opts) (result, info, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", trace}
	if o.quick {
		args = append(args, "--quick")
	}
	if o.spansOut != "" {
		args = append(args, "--spans-out", o.spansOut)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, info{}, fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}
	return parseRun(out)
}

// parseRun reads the last two lines of a run's output: info, then result.
func parseRun(out []byte) (result, info, error) {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return result{}, info{}, fmt.Errorf("run printed %d lines, want an info and a result line", len(lines))
	}
	var inf struct {
		Info info `json:"info"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &inf); err != nil {
		return result{}, info{}, fmt.Errorf("info line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, info{}, fmt.Errorf("result line: %w", err)
	}
	return res, inf.Info, nil
}

func suiteMain(args []string) int {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	var o opts
	reps := fs.Int("reps", 3, "untraced runs per workload, each in a fresh process")
	spans := fs.Bool("spans", false, "also make one traced run per workload and report the per-layer metrics")
	spansOut := fs.String("spans-out", "", "with -spans, write each workload's spans to <this>.<workload>.jsonl")
	out := fs.String("out", "", "write the numbers to this JSON file, for `compare`")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long each run measures")
	fs.BoolVar(&o.quick, "quick", false, "tiny sizes, for smoke tests only")
	fs.Parse(args)

	sf := suiteFile{Seed: o.seed, Reps: *reps, Seconds: o.seconds}
	fail := func(format string, a ...any) {
		sf.Failed++
		fmt.Printf("FAILED: "+format+"\n", a...)
	}
	for _, name := range workloadNames() {
		o.workload = name
		row := suiteRow{Workload: name, EndToEnd: map[string][]float64{}}
		for rep := 0; rep < *reps; rep++ {
			o.trace, o.spansOut = false, ""
			res, inf, err := child(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark suite:", err)
				return 2
			}
			sf.Attempted += res.Attempted + 1 // the run's own checks, and rep-to-rep identity
			sf.Failed += res.Failed
			for _, p := range inf.Problems {
				fmt.Printf("FAILED: %s: %s\n", name, p)
			}
			if rep == 0 {
				row.Digest, row.Legs = inf.Digest, inf.Legs
			} else if inf.Digest != row.Digest {
				fail("%s: rep %d has sim_digest %s, rep 0 has %s", name, rep, inf.Digest, row.Digest)
			}
			if !parallelWorkloads[name] && inf.CPUUtil < 0.9 {
				row.Contended = true
			}
			for _, d := range endToEndMetrics {
				row.EndToEnd[d.Name] = append(row.EndToEnd[d.Name], res.Metrics[d.Name].Value)
			}
		}
		if *spans {
			o.trace = true
			if *spansOut != "" {
				o.spansOut = fmt.Sprintf("%s.%s.jsonl", *spansOut, name)
			}
			res, _, err := child(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark suite:", err)
				return 2
			}
			sf.Attempted += res.Attempted
			sf.Failed += res.Failed
			row.PerLayer = map[string]float64{}
			for name, v := range res.Metrics {
				row.PerLayer[name] = v.Value
			}
		}
		for _, d := range endToEndMetrics {
			if spread(row.EndToEnd[d.Name]) > d.Bound {
				row.Contended = true
			}
		}
		sf.Workloads = append(sf.Workloads, row)
		printRow(os.Stdout, row)
	}

	// Identities across workloads: knobs that only change speed or only
	// observe must leave the simulated statistics bit-identical.
	byName := map[string]suiteRow{}
	for _, row := range sf.Workloads {
		byName[row.Workload] = row
	}
	same := func(a, b string, digestOfB func(suiteRow) string) {
		sf.Attempted++
		if da, db := byName[a].Digest, digestOfB(byName[b]); da != db {
			fail("%s (%s) and %s (%s) must have the same sim_digest", a, da, b, db)
		}
	}
	same("torus512_sat", "torus512_sat_shards2", func(r suiteRow) string { return r.Digest })
	same("rails64_observed", "deadlock64_storm", func(r suiteRow) string { return r.Legs["ndm"] })

	fmt.Printf("failed_share %d/%d\n", sf.Failed, sf.Attempted)
	if *out != "" {
		b, err := json.MarshalIndent(sf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark suite:", err)
			return 2
		}
	}
	if sf.Failed > 0 {
		return 1
	}
	return 0
}

func printRow(w io.Writer, row suiteRow) {
	flag := ""
	if row.Contended {
		flag = "  [contended]"
	}
	fmt.Fprintf(w, "%s  sim_digest=%s%s\n", row.Workload, row.Digest, flag)
	for _, d := range endToEndMetrics {
		vs := row.EndToEnd[d.Name]
		lo, hi := minMax(vs)
		fmt.Fprintf(w, "  %-14s median %14.6g  min %14.6g  max %14.6g  %s (n=%d)\n", d.Name, median(vs), lo, hi, d.Unit, len(vs))
	}
	for _, d := range perLayerMetrics {
		if v, ok := row.PerLayer[d.Name]; ok && v != 0 {
			fmt.Fprintf(w, "  %-34s %18.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

func readSuite(path string) (suiteFile, error) {
	var sf suiteFile
	b, err := os.ReadFile(path)
	if err != nil {
		return sf, err
	}
	if err := json.Unmarshal(b, &sf); err != nil {
		return sf, fmt.Errorf("%s: %w", path, err)
	}
	return sf, nil
}

// verdict compares one metric of one workload between a parent (a) and a
// change (b). worse is the share of a's median by which b's median is worse.
// It is "unresolved" when either side's spread exceeds the bound, unless
// every run of b reads better than every run of a. A set-up that got worse by
// no more than setupFloorS reads "ok", whatever its share and spread.
func verdict(d endToEndDef, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	aLo, aHi := minMax(a)
	bLo, bHi := minMax(b)
	allBetter := bHi < aLo
	if d.Better == higher {
		worse = -worse
		allBetter = bLo > aHi
	}
	switch {
	case d.Name == "setup_s" && mb-ma <= setupFloorS:
		return worse, "ok"
	case (spread(a) > d.Bound || spread(b) > d.Bound) && !allBetter:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "BREACH"
	default:
		return worse, "ok"
	}
}

// compareMain prints one row per (workload, end-to-end metric) of two suite
// files and returns 1 if any metric got worse by more than its bound.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare PARENT.json CHANGE.json")
		return 2
	}
	a, err := readSuite(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readSuite(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	bRows := map[string]suiteRow{}
	for _, row := range b.Workloads {
		bRows[row.Workload] = row
	}
	breaches := 0
	fmt.Fprintf(w, "%-22s %-12s %14s %29s %14s %29s %8s %6s  %s\n",
		"workload", "metric", "parent", "[min, max]", "change", "[min, max]", "worse", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := bRows[ra.Workload]
		if !ok {
			continue
		}
		for _, d := range endToEndMetrics {
			va, vb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			worse, v := verdict(d, va, vb)
			if v == "BREACH" {
				breaches++
			}
			aLo, aHi := minMax(va)
			bLo, bHi := minMax(vb)
			fmt.Fprintf(w, "%-22s %-12s %14.6g [%13.6g,%13.6g] %14.6g [%13.6g,%13.6g] %+7.1f%% %5.0f%%  %s\n",
				ra.Workload, d.Name, median(va), aLo, aHi, median(vb), bLo, bHi, 100*worse, 100*d.Bound, v)
		}
		if ra.Digest != rb.Digest {
			fmt.Fprintf(w, "%-22s sim_digest differs (%s, %s): the simulated statistics changed, so this is not a speed-only change\n",
				ra.Workload, ra.Digest, rb.Digest)
		}
	}
	fmt.Fprintf(w, "failed_share parent %d/%d, change %d/%d\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
	if breaches > 0 || b.Failed > a.Failed {
		return 1
	}
	return 0
}
