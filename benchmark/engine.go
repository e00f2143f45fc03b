package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"wormnet"
	"wormnet/internal/forensics"
	"wormnet/internal/metrics"
	"wormnet/internal/sim"
	"wormnet/internal/stats"
	"wormnet/internal/trace"
)

// rails selects the observability rails attached to an engine. All of them
// are observation only: the simulated statistics must not change.
type rails uint8

const (
	railRing      rails = 1 << iota // trace.Recorder ring of the default capacity
	railJSONL                       // the recorder also encodes every event to a sink
	railSampler                     // metrics.Collector, window 256
	railForensics                   // online forensics.Correlator on the recorder
)

// A leg is one engine of a workload: a generated configuration plus the fixed
// cycle counts that shape its measurement. The engine sees only cfg.
type leg struct {
	name  string
	cfg   wormnet.Config
	warm  int64 // warm-up cycles, part of set-up
	seg   int64 // cycles per timed segment
	check int64 // measured cycles after which sim_digest is taken; a multiple of seg
	rails rails
	sink  io.Writer // railJSONL's sink; nil means io.Discard
}

// rig is a built and warmed engine with whatever rails it carries.
type rig struct {
	eng *sim.Engine
	rec *trace.Recorder
	fc  *forensics.Correlator
}

func stepN(e *sim.Engine, n int64) error {
	for i := int64(0); i < n; i++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// build constructs the leg's engine and runs its warm-up cycles: one set-up.
// The statistics window opens after the warm-up and never closes, so the
// caller decides how many cycles are measured.
func (l leg) build(tr *tracer, parent int) (*rig, error) {
	c := l.cfg
	c.Warmup, c.Measure = l.warm, 1<<40
	sc, err := c.SimConfig()
	if err != nil {
		return nil, err
	}
	g := &rig{}
	if l.rails&(railRing|railJSONL|railForensics) != 0 {
		g.rec = trace.NewRecorder(0)
		sc.Trace = g.rec
	}
	if l.rails&railJSONL != 0 {
		w := l.sink
		if w == nil {
			w = io.Discard
		}
		g.rec.SetSink(w)
	}
	var mc *metrics.Collector
	if l.rails&railSampler != 0 {
		mc = metrics.NewCollector(metrics.Options{Window: 256})
		sc.Metrics = mc
	}
	if l.rails&railForensics != 0 {
		g.fc = forensics.New(forensics.Options{Metrics: mc})
		g.rec.SetObserver(g.fc.Observe)
	}
	id := tr.begin("sim.New", parent)
	g.eng, err = sim.New(sc)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("warmup", parent)
	err = stepN(g.eng, l.warm)
	tr.end(id)
	if err != nil {
		g.eng.StopWorkers()
		return nil, err
	}
	return g, nil
}

// snapshot is the simulated outcome of a leg after its first `check` measured
// cycles. Every field is simulated, so it repeats exactly for a fixed seed.
type snapshot struct {
	digest uint64
	st     stats.Counters
}

func takeSnapshot(e *sim.Engine) (snapshot, error) {
	// The detection-delay histogram is only reachable through Engine.Run,
	// which this benchmark cannot call on an open-ended window; marks that
	// moved would still show in the counters and the detect-latency histogram.
	d, err := digest(e.Stats(), e.LatencyHistogram(), e.DetectLatencyHistogram())
	return snapshot{digest: d, st: *e.Stats()}, err
}

// measured is what timing one leg yields.
type measured struct {
	segSec []float64 // wall seconds of each unspanned segment
	spanS  []float64 // wall seconds of each spanned segment (traced runs)
	snap   snapshot
	// rssMiB is the process's peak RSS at the checkpoint. Taking memory at a
	// fixed amount of simulated work keeps it independent of how many cycles
	// the host managed in the time allowed.
	rssMiB float64
	final  stats.Counters
	// What the unspanned segments of a traced run allocated, and how many
	// collections ran in them. The tracer appends nothing during those
	// segments, so this is the simulator's (and its rails') own.
	allocBytes, gcs uint64
}

// rate is the leg's simulated cycles per host second: the segment length over
// the median segment time, which a stray pause in one segment cannot move.
func (m measured) rate(seg int64) float64 { return float64(seg) / median(m.segSec) }

// measure steps the rig in timed segments until both the budget is spent and
// the checkpoint is passed. Untraced (tr == nil) it reads the clock twice per
// segment and never per Step. Traced, every other segment wraps each Step in
// a span, so one engine yields both the spanned and the unspanned rate, and
// the unspanned segments are also the allocation window.
func (l leg) measure(g *rig, budget time.Duration, tr *tracer, parent int) (measured, error) {
	var m measured
	var ms runtime.MemStats
	start := time.Now()
	for done := int64(0); done < l.check || time.Since(start) < budget; done += l.seg {
		spanned := tr != nil && (done/l.seg)%2 == 1
		t0 := time.Now()
		if spanned {
			for i := int64(0); i < l.seg; i++ {
				id := tr.begin("sim.Step", parent)
				err := g.eng.Step()
				tr.end(id)
				if err != nil {
					return m, err
				}
			}
			m.spanS = append(m.spanS, time.Since(t0).Seconds())
		} else {
			if tr != nil {
				runtime.ReadMemStats(&ms)
				m.allocBytes -= ms.TotalAlloc
				m.gcs -= uint64(ms.NumGC)
				t0 = time.Now()
			}
			err := stepN(g.eng, l.seg)
			sec := time.Since(t0).Seconds()
			if tr != nil {
				runtime.ReadMemStats(&ms)
				m.allocBytes += ms.TotalAlloc
				m.gcs += uint64(ms.NumGC)
			}
			if err != nil {
				return m, err
			}
			m.segSec = append(m.segSec, sec)
		}
		if done+l.seg == l.check {
			var err error
			if m.snap, err = takeSnapshot(g.eng); err != nil {
				return m, err
			}
			if m.rssMiB, err = peakRSSMiB(); err != nil {
				return m, err
			}
		}
	}
	m.final = *g.eng.Stats()
	return m, nil
}

// reference re-runs the leg serially and unobserved up to the checkpoint and
// returns its digest, which a sharded or observed leg must match.
func (l leg) reference() (uint64, error) {
	l.cfg.Shards, l.rails = 0, 0
	g, err := l.build(nil, -1)
	if err != nil {
		return 0, err
	}
	if err := stepN(g.eng, l.check); err != nil {
		return 0, err
	}
	s, err := takeSnapshot(g.eng)
	return s.digest, err
}

// checkSnapshot applies the output checks that hold for every engine leg.
func checkSnapshot(r *report, l leg, s snapshot) {
	r.check(s.st.Marked == s.st.TrueMarked+s.st.FalseMarked,
		"%s: Marked %d != TrueMarked %d + FalseMarked %d", l.name, s.st.Marked, s.st.TrueMarked, s.st.FalseMarked)
	r.check(s.st.Cycles == l.check, "%s: %d measured cycles at the checkpoint, want %d", l.name, s.st.Cycles, l.check)
	r.check(s.st.Delivered > 0 && s.st.DeliveredFlits >= s.st.Delivered,
		"%s: delivered %d messages in %d flits", l.name, s.st.Delivered, s.st.DeliveredFlits)
}

// engineWorkload is a workload made of engines stepped one after the other.
type engineWorkload struct {
	legs func(o opts) []leg
	// tracksOffered marks workloads below saturation, whose accepted
	// throughput must stay within 2 % of the offered load.
	tracksOffered bool
	// probes runs the workload's A/B legs in a traced run.
	probes func(o opts, r *report, tr *tracer, parent int, budget time.Duration)
}

// rounds is how many times a run sets an engine workload up and measures it.
const rounds = 6

func (w engineWorkload) endToEnd(o opts, r *report) {
	legs := w.legs(o)
	// Every round sets each leg up afresh and measures it for an equal share
	// of the time. Several rounds give set-up its median and spread the
	// timing over more than one heap layout. Round 0 runs the seed itself and
	// is the one whose digest is reported; later rounds run seeds derived
	// from it, because a deadlock storm's speed depends on where its seed
	// takes it: the CMH leg's 500-cycle segments take anything from 55 to
	// 130 ms along one trajectory, so six short trajectories say more than
	// one long one (ten seeds spread by 7-10 % with three rounds).
	share := o.budget() / time.Duration(rounds*len(legs))
	segs := make([][]float64, len(legs))
	digests := make([]uint64, len(legs))
	var setups []float64
	cpu := startCPUMeter()
	for round := 0; round < rounds; round++ {
		ro := o
		ro.seed += uint64(round) << 32
		setup := 0.0
		for i, l := range w.legs(ro) {
			// Collect the previous rig first, so that memory peaks at one
			// live engine however the collector happened to be paced.
			runtime.GC()
			t0 := time.Now()
			g, err := l.build(nil, -1)
			setup += time.Since(t0).Seconds()
			if !r.op(err, "set-up of leg "+l.name) {
				return
			}
			m, err := l.measure(g, share, nil, -1)
			g.eng.StopWorkers()
			if !r.op(err, "measured run of leg "+l.name) {
				return
			}
			segs[i] = append(segs[i], m.segSec...)
			checkSnapshot(r, l, m.snap)
			if w.tracksOffered {
				got, want := m.final.Throughput(), l.cfg.Load
				r.check(got > want*(1-o.tolerance()) && got < want*(1+o.tolerance()),
					"%s: accepted %.4f flits/cycle/node, offered %.4f", l.name, got, want)
			}
			if round == 0 {
				digests[i] = m.snap.digest
				r.info.Legs[l.name] = fmt.Sprintf("%016x", m.snap.digest)
				// The high-water mark only rises, so the last leg's is the run's.
				r.set("peak_rss_mb", m.rssMiB)
			}
		}
		setups = append(setups, setup)
	}
	r.info.CPUUtil = cpu.util()
	r.set("setup_s", median(setups))
	r.setDigest(digests)

	// Equal cycles from every leg: total cycles over the summed leg times,
	// each leg at the median of its segment times.
	secPerCycle := 0.0
	for i, l := range legs {
		secPerCycle += median(segs[i]) / float64(l.seg)
	}
	r.set("work_per_s", float64(len(legs))/secPerCycle)

	// Shards and rails change speed or observe; they must not change what is
	// simulated, so such a leg must match its serial, unobserved self.
	for i, l := range legs {
		if l.cfg.Shards == 0 && l.rails == 0 {
			continue
		}
		ref, err := l.reference()
		if r.op(err, "reference run of leg "+l.name) {
			r.check(ref == digests[i], "%s: sim_digest %016x differs from the serial unobserved reference %016x", l.name, digests[i], ref)
		}
	}
}

func (w engineWorkload) layers(o opts, r *report, tr *tracer) {
	legs := w.legs(o)
	root := tr.begin(o.workload, -1)
	budget := o.budget()
	if w.probes != nil {
		budget /= 2 // the other half goes to the A/B legs
	}
	var allocCycles, allocs, gcs, flits float64
	var unspanned, spanned float64 // seconds per cycle, summed over legs
	var wall float64
	cpu := startCPUMeter()
	for i, l := range legs {
		g, err := l.build(tr, root)
		if !r.op(err, "set-up of leg "+l.name) {
			return
		}
		t0 := time.Now()
		m, err := l.measure(g, budget/time.Duration(len(legs)), tr, root)
		wall += time.Since(t0).Seconds()
		g.eng.StopWorkers()
		if !r.op(err, "traced run of leg "+l.name) {
			return
		}
		allocs += float64(m.allocBytes)
		gcs += float64(m.gcs)
		allocCycles += float64(int64(len(m.segSec)) * l.seg)
		flits += float64(m.final.DeliveredFlits)
		unspanned += 1 / m.rate(l.seg)
		spanned += median(m.spanS) / float64(l.seg)
		r.set(legRateMetric[l.cfg.Mechanism], m.rate(l.seg))
		checkSnapshot(r, l, m.snap)
		counters(r, m.snap.st, i == 0)
		if i == 0 {
			oracleProbe(r, tr, root, g)
		}
		if g.fc != nil {
			g.fc.Finish()
			r.set("forensics.episodes", float64(len(g.fc.Episodes())))
		}
		if g.rec != nil {
			r.set("trace.events_per_cycle", float64(g.rec.Total())/float64(l.warm+m.final.Cycles))
		}
	}
	r.set("host.cpu_util", cpu.util())
	r.set("bench.span_overhead_pct", 100*(spanned/unspanned-1))
	r.set("sim.cycles_per_s", float64(len(legs))/unspanned)
	steps := tr.durations("sim.Step")
	r.set("sim.new_ms", 1e3*median(tr.durations("sim.New")))
	r.set("sim.step_p50_us", 1e6*median(steps))
	r.set("sim.step_p99_us", 1e6*percentile(steps, 0.99))
	r.set("sim.step_max_us", 1e6*percentile(steps, 1))
	r.set("sim.step_samples", float64(len(steps)))
	r.set("sim.ns_per_delivered_flit", 1e9*wall/flits)
	r.set("sim.alloc_bytes_per_kcycle", 1e3*allocs/allocCycles)
	r.set("sim.gc_count", gcs)
	if w.probes != nil {
		w.probes(o, r, tr, root, budget)
	}
	tr.end(root)
}

// legRateMetric names the per-leg rate metric after the detector the leg runs.
var legRateMetric = map[wormnet.Mechanism]string{
	wormnet.NDM: "detect.ndm.cycles_per_s",
	wormnet.PDM: "detect.pdm.cycles_per_s",
	wormnet.CMH: "probe.cmh.cycles_per_s",
}

// counters reports the simulated counts of one leg at its checkpoint. They
// repeat exactly for a seed, so a speed-only change must leave all of them
// untouched. Counts add up over a workload's legs; the router rows describe
// its first leg.
func counters(r *report, st stats.Counters, first bool) {
	if first {
		r.set("router.delivered_msgs", float64(st.Delivered))
		r.set("router.delivered_flits", float64(st.DeliveredFlits))
		r.set("router.throughput", st.Throughput())
		r.set("router.avg_latency_cycles", st.AvgLatency())
	}
	r.add("detect.marks_true", float64(st.TrueMarked))
	r.add("detect.marks_false", float64(st.FalseMarked))
	r.add("probe.flits", float64(st.ProbeFlits))
	r.add("probe.emitted", float64(st.ProbesEmitted))
	r.add("probe.returned", float64(st.ProbesReturned))
	r.add("recovery.absorbed", float64(st.Absorbed))
	r.add("recovery.reinjected", float64(st.Reinjected))
	r.add("deadlock.oracle_runs", float64(st.OracleRuns))
	r.add("deadlock.deadlock_cycles", float64(st.DeadlockCycles))
	if marks := r.metrics["detect.marks_true"] + r.metrics["detect.marks_false"]; marks > 0 {
		r.set("detect.true_mark_share", r.metrics["detect.marks_true"]/marks)
	}
	if e := r.metrics["probe.emitted"]; e > 0 {
		r.set("probe.returned_share", r.metrics["probe.returned"]/e)
	}
}

// oracleProbe times the global deadlock oracle on the fabric frozen where the
// leg stopped: a full recomputation, and the cached answer for an unchanged
// fabric.
func oracleProbe(r *report, tr *tracer, parent int, g *rig) {
	o := g.eng.Oracle()
	var full []float64
	for i := 0; i < 25; i++ {
		o.Invalidate()
		id := tr.begin("deadlock.Oracle.Deadlocked", parent)
		t0 := time.Now()
		_ = o.Deadlocked()
		full = append(full, time.Since(t0).Seconds())
		tr.end(id)
	}
	const cachedCalls = 100000
	t0 := time.Now()
	for i := 0; i < cachedCalls; i++ {
		_ = o.Deadlocked()
	}
	r.set("deadlock.oracle_full_us", 1e6*median(full))
	r.set("deadlock.oracle_cached_ns", 1e9*time.Since(t0).Seconds()/cachedCalls)
}

// abRates builds and warms one engine per variant, then steps them in
// round-robin segments until the budget is spent, so drift and host noise
// fall on every variant alike. It returns each variant's median rate in
// cycles per second and its final counters.
func abRates(r *report, tr *tracer, parent int, variants []leg, budget time.Duration) ([]float64, []stats.Counters, bool) {
	rigs := make([]*rig, len(variants))
	for i, l := range variants {
		g, err := l.build(tr, parent)
		if !r.op(err, "set-up of A/B leg "+l.name) {
			return nil, nil, false
		}
		defer g.eng.StopWorkers()
		rigs[i] = g
	}
	segs := make([][]float64, len(variants))
	for start := time.Now(); len(segs[0]) < 3 || time.Since(start) < budget; {
		for i, l := range variants {
			t0 := time.Now()
			if !r.op(stepN(rigs[i].eng, l.seg), "A/B leg "+l.name) {
				return nil, nil, false
			}
			segs[i] = append(segs[i], time.Since(t0).Seconds())
		}
	}
	rates := make([]float64, len(variants))
	final := make([]stats.Counters, len(variants))
	for i, l := range variants {
		rates[i] = float64(l.seg) / median(segs[i])
		final[i] = *rigs[i].eng.Stats()
	}
	return rates, final, true
}

// costPct is how much slower a variant runs than the baseline, in percent.
func costPct(base, variant float64) float64 { return 100 * (base/variant - 1) }

// capture runs the leg with a streaming recorder into memory and returns the
// JSONL trace of its warm-up plus `check` cycles, for the replay probes.
func (l leg) capture(tr *tracer, parent int) ([]byte, error) {
	var buf bytes.Buffer
	l.rails, l.sink = railJSONL, &buf
	g, err := l.build(tr, parent)
	if err != nil {
		return nil, err
	}
	if err := stepN(g.eng, l.check); err != nil {
		return nil, err
	}
	if err := g.rec.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
