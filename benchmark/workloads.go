package main

import (
	"bytes"
	"time"

	"wormnet"
	"wormnet/internal/forensics"
	"wormnet/internal/trace"
)

// A workload is one named set of inputs. endToEnd times it with spans off and
// fills the end-to-end metrics; layers repeats it traced and fills the
// per-layer metrics.
type workload struct {
	name, why string
	endToEnd  func(o opts, r *report)
	layers    func(o opts, r *report, tr *tracer)
}

func engineEntry(name, why string, w engineWorkload) workload {
	return workload{name: name, why: why, endToEnd: w.endToEnd, layers: w.layers}
}

// workloads lists every workload in the order reports print them. Sizes are
// fixed here and must stay the same on every commit: a change to them is a
// change to the benchmark, not to the simulator.
var workloads = []workload{
	engineEntry("torus512_sat",
		"work=cycles; paper-scale 8-ary 3-cube near saturation (load 0.514, NDM t2=32), serial: sim kernel, router and routing do nearly all the work, detection marks nothing",
		engineWorkload{legs: func(o opts) []leg { return []leg{satLeg(o, 0)} }, tracksOffered: true, probes: detectorProbes}),
	engineEntry("torus512_sat_shards2",
		"work=cycles; identical config, seed and cycles with Shards=2: the only row where the decide/commit barrier and boundary moves run, so it decides whether sharding pays",
		engineWorkload{legs: func(o opts) []leg { return []leg{satLeg(o, 2)} }, tracksOffered: true, probes: shardProbe}),
	engineEntry("torus4096_idle",
		"work=cycles; 16-ary 3-cube at load 0.01 bypasses saturated transfer and arbitration: cost is active-set bitmaps and skip-ahead generation, so a saturation-side change should read no change here",
		engineWorkload{legs: func(o opts) []leg { return []leg{idleLeg(o)} }, tracksOffered: true, probes: idleProbe}),
	engineEntry("deadlock64_storm",
		"work=cycles; deadlock-prone 8-ary 2-cube (1 VC, load 2.0, oracle every cycle), legs NDM, PDM, CMH back to back: detect, probe, the deadlock oracle and recovery dominate, the router kernel is small",
		engineWorkload{legs: stormLegs}),
	engineEntry("rails64_observed",
		"work=cycles; the NDM leg of deadlock64_storm with trace ring, metrics sampler and online forensics attached: the observability rails do most of the extra work",
		engineWorkload{legs: func(o opts) []leg {
			l := stormLeg(o, wormnet.NDM)
			l.rails = railRing | railSampler | railForensics
			return []leg{l}
		}, probes: railProbes}),
	{name: "table2_small",
		why:      "work=cell-cycles; the paper's Table 2 on the 8-ary 2-cube with 2 harness workers, 160 cells after a serial saturation estimate: harness scheduling and 160+ engine set-ups, not steady-state stepping",
		endToEnd: tableEndToEnd, layers: tableLayers},
	{name: "mcheck_dblface",
		why:      "work=canonical states; mc.Check NDM on the 2x2 torus, 8-message double-face script, 100000 states: engine replay, canonical encoding and the visited set, almost no steady-state stepping",
		endToEnd: mcheckEndToEnd, layers: mcheckLayers},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// satLeg is the paper's near-saturation column on the paper's network:
// 8-ary 3-cube, uniform 16-flit traffic, NDM t2=32, injection limit 6.
func satLeg(o opts, shards int) leg {
	c := wormnet.DefaultConfig()
	c.K = int(o.pick(8, 4))
	c.Load = 0.514
	c.Shards = shards
	c.Seed = o.seed
	return leg{name: "ndm", cfg: c, warm: o.pick(4000, 200), seg: o.pick(500, 50), check: o.pick(2000, 100)}
}

func idleLeg(o opts) leg {
	c := wormnet.DefaultConfig()
	c.K = int(o.pick(16, 6))
	c.Load = 0.01
	c.Seed = o.seed
	return leg{name: "ndm", cfg: c, warm: o.pick(2000, 200), seg: o.pick(2000, 100), check: o.pick(20000, 200)}
}

// stormLeg is the repository's standard deadlock-prone fabric: a single
// virtual channel and no injection limit at twice the saturation load, with
// the oracle classifying every cycle.
func stormLeg(o opts, mech wormnet.Mechanism) leg {
	c := wormnet.DefaultConfig()
	c.K, c.N = int(o.pick(8, 4)), 2
	c.VirtualChannels = 1
	c.Load = 2.0
	c.InjectionLimit = -1
	c.Mechanism = mech
	c.Threshold = 32
	c.OracleEvery = 1
	c.Seed = o.seed
	return leg{name: string(mech), cfg: c, warm: o.pick(2000, 200), seg: o.pick(500, 50), check: o.pick(4000, 100)}
}

func stormLegs(o opts) []leg {
	return []leg{stormLeg(o, wormnet.NDM), stormLeg(o, wormnet.PDM), stormLeg(o, wormnet.CMH)}
}

// probeLeg shortens a leg for an A/B comparison: half the warm-up, because
// only the ratio between variants that share it matters.
func probeLeg(l leg, name string) leg {
	l.name, l.warm = name, l.warm/2
	return l
}

// detectorProbes prices each detector family, and the every-cycle oracle,
// against no detection on the saturated torus. Nothing is marked there, so
// every variant must carry exactly the same traffic.
func detectorProbes(o opts, r *report, tr *tracer, parent int, budget time.Duration) {
	base := probeLeg(satLeg(o, 0), "none")
	base.cfg.Mechanism = wormnet.NoDetection
	variants := []leg{base}
	for _, mech := range []wormnet.Mechanism{wormnet.NDM, wormnet.PDM, wormnet.CMH} {
		l := probeLeg(satLeg(o, 0), string(mech))
		l.cfg.Mechanism = mech
		variants = append(variants, l)
	}
	oracle := probeLeg(satLeg(o, 0), "ndm+oracle")
	oracle.cfg.OracleEvery = 1
	variants = append(variants, oracle)

	rates, final, ok := abRates(r, tr, parent, variants, budget)
	if !ok {
		return
	}
	for i := range variants[1:] {
		r.check(final[i+1].Delivered == final[0].Delivered && final[i+1].Marked == 0,
			"A/B %s: delivered %d (marked %d), no detection delivered %d: traffic differs, the cost is not comparable",
			variants[i+1].name, final[i+1].Delivered, final[i+1].Marked, final[0].Delivered)
	}
	r.set("detect.ndm_cost_pct", costPct(rates[0], rates[1]))
	r.set("detect.pdm_cost_pct", costPct(rates[0], rates[2]))
	r.set("probe.cmh_cost_pct", costPct(rates[0], rates[3]))
	r.set("deadlock.oracle_every1_cost_pct", costPct(rates[1], rates[4]))
}

// shardProbe is the one place besides the workload itself where Shards is
// set: the same engine serial and on two shards, segment by segment.
func shardProbe(o opts, r *report, tr *tracer, parent int, budget time.Duration) {
	rates, _, ok := abRates(r, tr, parent, []leg{probeLeg(satLeg(o, 0), "shards1"), probeLeg(satLeg(o, 2), "shards2")}, budget)
	if ok {
		r.set("sim.shards2_speedup", rates[1]/rates[0])
	}
}

// idleProbe compares the big idle fabric with the 512-node torus carrying the
// same number of messages per cycle (load 0.08 on an eighth of the nodes): a
// ratio of 1 means step cost tracks traffic, not fabric size.
func idleProbe(o opts, r *report, tr *tracer, parent int, budget time.Duration) {
	small := probeLeg(satLeg(o, 0), "torus512_load0.08")
	small.cfg.Load = 0.08
	small.seg = idleLeg(o).seg
	rates, _, ok := abRates(r, tr, parent, []leg{probeLeg(idleLeg(o), "torus4096_load0.01"), small}, budget)
	if ok {
		r.set("sim.idle4096_vs_512_ratio", rates[1]/rates[0])
	}
}

// railProbes prices each observability rail on the storm's NDM leg, then
// replays an in-memory capture of it through the offline consumers.
func railProbes(o opts, r *report, tr *tracer, parent int, budget time.Duration) {
	variant := func(name string, rl rails) leg {
		l := probeLeg(stormLeg(o, wormnet.NDM), name)
		l.rails = rl
		return l
	}
	rates, _, ok := abRates(r, tr, parent, []leg{
		variant("plain", 0), variant("ring", railRing), variant("jsonl", railJSONL),
		variant("sampler", railSampler), variant("ring+forensics", railRing|railForensics),
	}, budget)
	if !ok {
		return
	}
	r.set("trace.ring_cost_pct", costPct(rates[0], rates[1]))
	r.set("trace.jsonl_cost_pct", costPct(rates[0], rates[2]))
	r.set("metrics.sampler_cost_pct", costPct(rates[0], rates[3]))
	r.set("forensics.online_cost_pct", costPct(rates[1], rates[4]))

	short := stormLeg(o, wormnet.NDM)
	short.check = o.pick(1000, 100) // some 280 events a cycle: enough to time the readers
	raw, err := short.capture(tr, parent)
	if !r.op(err, "trace capture") {
		return
	}
	events := 0
	id := tr.begin("trace.Scan", parent)
	t0 := time.Now()
	err = trace.Scan(bytes.NewReader(raw), func(trace.Event) error { events++; return nil })
	scanS := time.Since(t0).Seconds()
	tr.end(id)
	if r.op(err, "trace.Scan over the capture") {
		r.set("trace.scan_mb_per_s", float64(len(raw))/1e6/scanS)
	}
	id = tr.begin("forensics.Correlate", parent)
	t0 = time.Now()
	episodes, err := forensics.Correlate(bytes.NewReader(raw), forensics.Options{})
	corrS := time.Since(t0).Seconds()
	tr.end(id)
	if !r.op(err, "forensics.Correlate over the capture") {
		return
	}
	r.set("forensics.correlate_events_per_s", float64(events)/corrS)
	var report countingWriter
	if r.op(forensics.WriteJSONL(&report, episodes), "forensics.WriteJSONL") {
		r.set("forensics.report_mb", float64(report)/1e6)
	}
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
