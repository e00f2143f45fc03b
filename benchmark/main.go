// Command benchmark is the repository's benchmark: seven named workloads over
// the simulator's stable surface, end-to-end metrics timed with tracing off,
// and per-layer metrics from a separate traced run that records a span around
// every call the benchmark makes into a layer. See README.md.
//
//	bash benchmark/run.sh --workload torus512_sat --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh suite -reps 3 -out A.json
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// opts are the knobs of one run of one workload.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// quick shrinks every fabric and cycle count so that all workloads run
	// in well under a second each; the test uses it. Quick numbers mean
	// nothing as measurements.
	quick    bool
	spansOut string
}

// pick returns the full-size value, or the quick one under -quick.
func (o opts) pick(full, quick int64) int64 {
	if o.quick {
		return quick
	}
	return full
}

func (o opts) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// tolerance is the share by which accepted throughput may differ from the
// offered load below saturation. Quick runs are too short for 2 % to hold.
func (o opts) tolerance() float64 {
	if o.quick {
		return 0.5
	}
	return 0.02
}

// info is what a run reports beside its metrics: the digests that let two
// commits be compared exactly, and how much of a core the timed window got.
type info struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Digest   string            `json:"sim_digest"`
	Legs     map[string]string `json:"leg_digests,omitempty"`
	CPUUtil  float64           `json:"cpu_util"`
	Problems []string          `json:"problems,omitempty"`
}

// report accumulates one run: operations attempted and failed, metric values
// and the run's info.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	info              info
}

func newReport(o opts) *report {
	return &report{
		metrics: map[string]float64{},
		info:    info{Workload: o.workload, Seed: o.seed, Legs: map[string]string{}},
	}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }
func (r *report) add(name string, v float64) { r.metrics[name] += v }

// check counts one output check and records why it failed.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.info.Problems = append(r.info.Problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// op counts one operation (an engine run, a table pass, an mc.Check call).
func (r *report) op(err error, what string) bool {
	return r.check(err == nil, "%s: %v", what, err)
}

func (r *report) setDigest(parts []uint64) {
	d := parts[0]
	if len(parts) > 1 {
		d, _ = digest(parts) // encoding a []uint64 cannot fail
	}
	r.info.Digest = fmt.Sprintf("%016x", d)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload, untraced for the end-to-end metrics or
// traced for the per-layer metrics, and prints the human-readable lines to w.
func runWorkload(o opts, w io.Writer) (result, info, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return result{}, info{}, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	r := newReport(o)
	if o.trace {
		tr := newTracer(o.workload)
		hostMetrics(o, r)
		wl.layers(o, r, tr)
		fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, l := range tr.layerSummary() {
			fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", l.Name, l.Count, 1e3*l.TotalS, 1e3*l.SelfS)
		}
		if o.spansOut != "" {
			if err := writeSpans(o.spansOut, tr); err != nil {
				return result{}, info{}, err
			}
		}
	} else {
		wl.endToEnd(o, r)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range declared(o.trace) {
		v := r.metrics[d.Name] // a layer the workload never calls into reads 0
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-32s %18.6f %s\n", d.Name, v, d.Unit)
	}
	for name := range r.metrics {
		if _, declared := res.Metrics[name]; !declared {
			return result{}, info{}, fmt.Errorf("workload %s emitted undeclared metric %q", o.workload, name)
		}
	}
	for _, p := range r.info.Problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	return res, r.info, nil
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostMetrics records what the host gave this process, which qualifies every
// number of the sharded and the two-worker workloads.
func hostMetrics(o opts, r *report) {
	r.set("host.nproc", float64(runtime.NumCPU()))
	r.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	r.set("host.par_speedup2", parSpeedup2(int(o.pick(40_000_000, 1_000_000))))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "suite":
			os.Exit(suiteMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "manifest":
			if err := writeManifest(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
	}
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes, for smoke tests only")
	flag.StringVar(&o.spansOut, "spans-out", "", "with -trace 1, write the recorded spans to this JSONL file")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 | suite | compare A B | manifest")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, inf, err := runWorkload(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	// The info line is what `suite` reads beside the result; the result is
	// always the last line.
	for _, line := range []any{struct {
		Info info `json:"info"`
	}{inf}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
}
