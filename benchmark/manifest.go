package main

import (
	"encoding/json"
	"io"
)

// metricDef declares a metric. Per-layer metrics are just this.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndDef declares a metric a user of the simulator would see. Bound is
// the share of the parent commit's median by which the metric may get worse
// before a change counts as a regression.
type endToEndDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// runSeconds is how long the acceptance procedure measures in one run.
const runSeconds = 10

// endToEndMetrics are reported by every workload with --trace 0. work_per_s is
// host speed: the workload's unit of simulated work (simulated cycles, table
// cell-cycles, or canonical model-checker states; each workload's `why` says
// which) per host second. Failed operations are not a metric here: every run
// reports them as `failed` of `attempted`, and any failure makes it incorrect.
//
// The bounds are what the host allows, not what the simulator needs: README.md
// records two sets of ten runs of one commit whose medians differ by up to
// 14 % in work_per_s and 17 % in setup_s, and by 1 % in peak_rss_mb.
var endToEndMetrics = []endToEndDef{
	{metricDef{"work_per_s", "1/s", higher}, 0.25},
	{metricDef{"setup_s", "s", lower}, 0.25},
	{metricDef{"peak_rss_mb", "MiB", lower}, 0.15},
}

// setupFloorS is the absolute part of setup_s's regression bound: `compare`
// calls a slower set-up a breach only if it is also more than this many
// seconds slower, because a quarter of a few milliseconds is host noise.
const setupFloorS = 0.05

// perLayerMetrics are reported by every workload with --trace 1. Layer names
// are the module names. A workload that never calls into a layer, or does not
// run a probe, reports 0 for it.
var perLayerMetrics = []metricDef{
	// What the host gave the process; qualifies the sharded and 2-worker rows.
	{"host.nproc", "count", higher},
	{"host.gomaxprocs", "count", higher},
	{"host.par_speedup2", "ratio", higher},
	{"host.cpu_util", "ratio", higher},
	{"bench.span_overhead_pct", "%", lower},

	{"sim.new_ms", "ms", lower},
	{"sim.cycles_per_s", "1/s", higher},
	{"sim.step_p50_us", "us", lower},
	{"sim.step_p99_us", "us", lower},
	{"sim.step_max_us", "us", lower},
	{"sim.step_samples", "count", higher},
	{"sim.ns_per_delivered_flit", "ns/flit", lower},
	{"sim.alloc_bytes_per_kcycle", "B/kcycle", lower},
	{"sim.gc_count", "count", lower},
	{"sim.shards2_speedup", "ratio", higher},
	{"sim.idle4096_vs_512_ratio", "ratio", lower},

	// Simulated, exact for a seed: a speed-only change leaves them untouched.
	{"router.delivered_msgs", "count", higher},
	{"router.delivered_flits", "count", higher},
	{"router.throughput", "flits/cyc/node", higher},
	{"router.avg_latency_cycles", "cycles", lower},

	{"detect.ndm_cost_pct", "%", lower},
	{"detect.pdm_cost_pct", "%", lower},
	{"probe.cmh_cost_pct", "%", lower},
	{"detect.ndm.cycles_per_s", "1/s", higher},
	{"detect.pdm.cycles_per_s", "1/s", higher},
	{"probe.cmh.cycles_per_s", "1/s", higher},
	{"detect.marks_true", "count", higher},
	{"detect.marks_false", "count", lower},
	{"detect.true_mark_share", "ratio", higher},
	{"probe.flits", "count", lower},
	{"probe.emitted", "count", lower},
	{"probe.returned", "count", higher},
	{"probe.returned_share", "ratio", higher},
	{"recovery.absorbed", "count", lower},
	{"recovery.reinjected", "count", lower},

	{"deadlock.oracle_full_us", "us", lower},
	{"deadlock.oracle_cached_ns", "ns", lower},
	{"deadlock.oracle_every1_cost_pct", "%", lower},
	{"deadlock.oracle_runs", "count", lower},
	{"deadlock.deadlock_cycles", "count", lower},

	{"trace.ring_cost_pct", "%", lower},
	{"trace.jsonl_cost_pct", "%", lower},
	{"trace.events_per_cycle", "1/cycle", lower},
	{"trace.scan_mb_per_s", "MB/s", higher},
	{"metrics.sampler_cost_pct", "%", lower},
	{"forensics.online_cost_pct", "%", lower},
	{"forensics.correlate_events_per_s", "1/s", higher},
	{"forensics.episodes", "count", lower},
	{"forensics.report_mb", "MB", lower},

	{"harness.overhead_us_per_run", "us/run", lower},
	{"harness.worker_util", "ratio", higher},
	{"harness.self_ms", "ms", lower},
	{"harness.run_p50_ms", "ms", lower},
	{"harness.run_p90_ms", "ms", lower},
	{"harness.runs", "count", higher},
	{"exp.saturation_s", "s", lower},
	{"exp.saturation_share", "ratio", lower},

	{"mc.states_per_s", "1/s", higher},
	{"mc.states", "count", higher},
	{"mc.interleavings", "count", lower},
	{"mc.depth", "count", higher},
	{"mc.bytes_per_state", "B/state", lower},
	{"mc.face3x3_wall_ms", "ms", lower},
}

// declared lists the metrics a run must print: the per-layer metrics for a
// traced run, the end-to-end metrics otherwise.
func declared(trace bool) []metricDef {
	if trace {
		return perLayerMetrics
	}
	out := make([]metricDef, len(endToEndMetrics))
	for i, d := range endToEndMetrics {
		out[i] = d.metricDef
	}
	return out
}

// manifest is BENCHMARK.json: what the benchmark is, for whoever runs it.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []endToEndDef  `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func currentManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDecl{w.name, w.why})
	}
	return m
}

// writeManifest prints BENCHMARK.json from the declarations above, so the file
// at the repository root cannot drift from what the benchmark emits.
func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(currentManifest())
}
