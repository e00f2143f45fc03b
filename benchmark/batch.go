package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"wormnet"
	"wormnet/internal/exp"
	"wormnet/internal/harness"
	"wormnet/internal/mc"
	"wormnet/internal/sim"
)

// Batch workloads run a fixed pass of work over and over until the time is
// up; their rate is the pass's work over the median pass time.

// setFirstPassRSS records peak memory after set-up and the first pass, a fixed
// amount of work, so that it does not depend on how many passes fit the time.
func setFirstPassRSS(r *report) {
	rss, err := peakRSSMiB()
	if r.op(err, "reading peak RSS") {
		r.set("peak_rss_mb", rss)
	}
}

// tableWorkers is the one harness worker count the benchmark uses.
const tableWorkers = 2

func tableOptions(o opts) wormnet.TableOptions {
	return wormnet.TableOptions{
		K: int(o.pick(8, 4)), N: 2, RelativeRates: true,
		Warmup: o.pick(400, 100), Measure: o.pick(1200, 300),
		Workers: tableWorkers, Seed: o.seed,
	}
}

// saturation is the serial prefix of a table: what a user waits for before
// the first cell starts.
func saturation(o opts) (float64, error) {
	tbl, err := exp.PaperTable(2)
	if err != nil {
		return 0, err
	}
	to := tableOptions(o)
	eo := exp.DefaultOptions()
	eo.K, eo.N, eo.Warmup, eo.Measure, eo.Seed = to.K, to.N, to.Warmup, to.Measure, to.Seed
	return exp.EstimateSaturation(tbl.Pattern, exp.SizeS.Dist, eo)
}

// tablePass runs Table 2 once and checks that every cell of the paper's grid
// came back. It returns the cell count and a digest of the rendered table.
func tablePass(o opts, r *report) (cells int, d uint64, ok bool) {
	res, err := wormnet.RunPaperTable(2, tableOptions(o))
	if !r.op(err, "RunPaperTable(2)") {
		return 0, 0, false
	}
	tbl, err := exp.PaperTable(2)
	if !r.op(err, "PaperTable(2)") {
		return 0, 0, false
	}
	for _, th := range tbl.Thresholds {
		for ri := range tbl.Rates {
			for _, size := range tbl.Sizes {
				_, done := res.Pct(th, ri, size.Key)
				r.check(done, "table cell th=%d rate#%d size=%s missing", th, ri, size.Key)
				cells++
			}
		}
	}
	var buf bytes.Buffer
	if !r.op(res.RenderJSON(&buf), "rendering the table") {
		return 0, 0, false
	}
	d, err = digest(buf.String())
	return cells, d, r.op(err, "digesting the table")
}

func tableEndToEnd(o opts, r *report) {
	// RunPaperTable does not say how long its saturation estimate took, so
	// set-up is the same estimate run on its own, three times for a median.
	var setups []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		_, err := saturation(o)
		if !r.op(err, "EstimateSaturation") {
			return
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	cpu := startCPUMeter()
	var walls []float64
	var digests []uint64
	cells := 0
	for start := time.Now(); len(walls) == 0 || time.Since(start) < o.budget(); {
		t0 := time.Now()
		n, d, ok := tablePass(o, r)
		if !ok {
			return
		}
		walls = append(walls, time.Since(t0).Seconds())
		digests = append(digests, d)
		cells = n
		if len(walls) == 1 {
			setFirstPassRSS(r)
		}
	}
	r.info.CPUUtil = cpu.util() / tableWorkers
	to := tableOptions(o)
	r.set("work_per_s", float64(cells)*float64(to.Warmup+to.Measure)/median(walls))
	r.setDigest(digests[:1])
	for i, d := range digests {
		r.check(d == digests[0], "table pass %d rendered differently from pass 0", i)
	}
}

// tablePoints rebuilds Table 2's grid from the public configuration surface,
// so the benchmark can hand harness.Run its own run function and see each
// cell. It is the same grid RunPaperTable expands, not the same code path.
func tablePoints(o opts, sat float64) ([]harness.Point, error) {
	tbl, err := exp.PaperTable(2)
	if err != nil {
		return nil, err
	}
	lengths := map[string]wormnet.Lengths{"s": wormnet.Len16, "l": wormnet.Len64, "L": wormnet.Len256, "sl": wormnet.LenSL}
	to := tableOptions(o)
	base := tbl.Rates[len(tbl.Rates)-2]
	var points []harness.Point
	for _, th := range tbl.Thresholds {
		for _, rate := range tbl.Rates {
			for _, size := range tbl.Sizes {
				c := wormnet.DefaultConfig()
				c.K, c.N = to.K, to.N
				c.Load = rate / base * sat
				c.Lengths = lengths[size.Key]
				c.Threshold = th
				c.Warmup, c.Measure = to.Warmup, to.Measure
				sc, err := c.SimConfig()
				if err != nil {
					return nil, err
				}
				points = append(points, harness.Point{Key: fmt.Sprintf("th=%d/rate=%.6g/%s", th, c.Load, size.Key), Config: sc})
			}
		}
	}
	return points, nil
}

func tableLayers(o opts, r *report, tr *tracer) {
	root := tr.begin(o.workload, -1)
	defer tr.end(root)
	cpu := startCPUMeter()

	id := tr.begin("exp.EstimateSaturation", root)
	sat, err := saturation(o)
	tr.end(id)
	if !r.op(err, "EstimateSaturation") {
		return
	}
	satS := tr.durations("exp.EstimateSaturation")[0]
	r.set("exp.saturation_s", satS)

	points, err := tablePoints(o, sat)
	if !r.op(err, "building the table's points") {
		return
	}
	hid := tr.begin("harness.Run", root)
	_, err = harness.Run(points, harness.Options{
		Workers: tableWorkers, BaseSeed: o.seed,
		Run: func(_ string, cfg sim.Config) (*sim.Result, error) {
			rid := tr.begin("harness.run", hid)
			defer tr.end(rid)
			id := tr.begin("sim.New", rid)
			eng, err := sim.New(cfg)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("sim.Engine.Run", rid)
			defer tr.end(id)
			return eng.Run()
		},
	})
	tr.end(hid)
	if !r.op(err, "harness.Run over the table's points") {
		return
	}
	runs := tr.durations("harness.run")
	sum := 0.0
	for _, d := range runs {
		sum += d
	}
	harnessS := tr.durations("harness.Run")[0]
	r.set("harness.runs", float64(len(runs)))
	r.set("harness.run_p50_ms", 1e3*median(runs))
	r.set("harness.run_p90_ms", 1e3*percentile(runs, 0.9))
	r.set("harness.worker_util", sum/(tableWorkers*harnessS))
	r.set("harness.self_ms", 1e3*tr.selfSeconds()[hid])
	r.set("sim.new_ms", 1e3*median(tr.durations("sim.New")))
	r.set("host.cpu_util", cpu.util()/tableWorkers)

	// The untraced table, for the serial share and the cost of the spans.
	t0 := time.Now()
	_, _, ok := tablePass(o, r)
	if !ok {
		return
	}
	tableS := time.Since(t0).Seconds()
	r.set("exp.saturation_share", satS/tableS)
	r.set("bench.span_overhead_pct", 100*((satS+harnessS)/tableS-1))

	// Harness overhead alone: runs that do nothing.
	const stubPoints = 2000
	stub := make([]harness.Point, stubPoints)
	for i := range stub {
		stub[i] = harness.Point{Key: fmt.Sprintf("stub%d", i), Config: points[0].Config}
	}
	t0 = time.Now()
	_, err = harness.Run(stub, harness.Options{Workers: tableWorkers,
		Run: func(string, sim.Config) (*sim.Result, error) { return &sim.Result{}, nil }})
	if r.op(err, "harness.Run over stub points") {
		r.set("harness.overhead_us_per_run", 1e6*time.Since(t0).Seconds()/stubPoints)
	}
}

// dblface is the 8-message double-face script of cmd/mcheck on the 2x2 torus:
// corner-turning messages around the unit face, each sent twice so that both
// parallel channels of the k=2 fabric fill. The seed picks which corner the
// script starts from; the four choices are rotations of one another.
func dblface(seed uint64) []mc.Inject {
	const k = 2
	a, b, c, d := 0, 1, k, k+1
	face := []mc.Inject{
		{Src: a, Dst: d, Length: 2}, {Src: b, Dst: c, Length: 2},
		{Src: d, Dst: a, Length: 2}, {Src: c, Dst: b, Length: 2},
	}
	script := make([]mc.Inject, 0, 2*len(face))
	for i := range face {
		m := face[(i+int(seed%4))%len(face)]
		script = append(script, m, m)
	}
	return script
}

func mcheckOptions(o opts, maxStates int64) mc.Options {
	return mc.Options{K: 2, N: 2, Mechanism: "ndm", Script: dblface(o.seed), InjectWindow: 0, MaxStates: int(maxStates)}
}

// mcheckPass explores the pass's fixed number of states and checks that the
// model checker found nothing wrong.
func mcheckPass(o opts, r *report, maxStates int64) (*mc.Result, bool) {
	res, err := mc.Check(mcheckOptions(o, maxStates))
	if !r.op(err, "mc.Check") {
		return nil, false
	}
	r.check(res.Violation == nil, "mc.Check reported %v", res.Violation)
	r.check(int64(res.States) >= maxStates, "mc.Check visited %d states, the pass is %d", res.States, maxStates)
	return res, true
}

// The model checker's set-up takes a few microseconds, so a run times it in
// mcheckSetups batches of mcheckSetupBatch and reports the median batch. A
// batch is long enough (some 10 ms) to hold several collector cycles, whose
// share of a short batch is what makes it read anything from 3 to 8 us.
const (
	mcheckSetups     = 25
	mcheckSetupBatch = 2000
)

func mcheckEndToEnd(o opts, r *report) {
	// Set-up is what happens before the first state is expanded: building the
	// script and the options, and inside mc.Check the defaults, the root
	// replay (an engine on the 2x2 torus) and the root's canonical encoding.
	// mc.Check capped at one state does exactly that and stops, so work that
	// a change moves out of the exploration and into set-up shows here.
	setups := make([]float64, 0, mcheckSetups)
	var root *mc.Result
	var err error
	for rep := 0; rep < mcheckSetups && err == nil; rep++ {
		t0 := time.Now()
		for i := 0; i < mcheckSetupBatch && err == nil; i++ {
			root, err = mc.Check(mcheckOptions(o, 1))
		}
		setups = append(setups, time.Since(t0).Seconds()/mcheckSetupBatch)
	}
	if !r.op(err, "mc.Check to its root state") ||
		!r.check(root.States == 1 && root.Violation == nil, "mc.Check capped at one state visited %d, violation %v", root.States, root.Violation) {
		return
	}
	r.set("setup_s", median(setups))

	cpu := startCPUMeter()
	var rates []float64
	var digests []uint64
	for start := time.Now(); len(rates) == 0 || time.Since(start) < o.budget(); {
		t0 := time.Now()
		res, ok := mcheckPass(o, r, o.pick(100000, 2000))
		if !ok {
			return
		}
		rates = append(rates, float64(res.States)/time.Since(t0).Seconds())
		if len(rates) == 1 {
			setFirstPassRSS(r)
		}
		d, err := digest(res.States, res.Leaves, res.Depth, res.DeadlockStates, res.TrueMarks)
		r.op(err, "digesting the mc result")
		digests = append(digests, d)
	}
	r.info.CPUUtil = cpu.util()
	r.set("work_per_s", median(rates))
	r.setDigest(digests[:1])
	for i, d := range digests {
		r.check(d == digests[0], "mc.Check pass %d explored a different space from pass 0", i)
	}
}

func mcheckLayers(o opts, r *report, tr *tracer) {
	root := tr.begin(o.workload, -1)
	defer tr.end(root)
	cpu := startCPUMeter()
	var ms runtime.MemStats
	pass := func(traced bool) (rate float64, ok bool) {
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		id := -1
		if traced {
			id = tr.begin("mc.Check", root)
		}
		t0 := time.Now()
		res, ok := mcheckPass(o, r, o.pick(100000, 2000))
		wall := time.Since(t0).Seconds()
		if traced {
			tr.end(id)
		}
		if !ok {
			return 0, false
		}
		runtime.ReadMemStats(&ms)
		r.set("mc.states", float64(res.States))
		r.set("mc.interleavings", float64(res.Leaves))
		r.set("mc.depth", float64(res.Depth))
		r.set("mc.bytes_per_state", float64(ms.TotalAlloc-a0)/float64(res.States))
		return float64(res.States) / wall, true
	}
	// Untraced, traced, untraced: the one span costs nothing measurable, so
	// the overhead row mostly shows how far two identical passes differ.
	var plain []float64
	var traced float64
	for i := 0; i < 3; i++ {
		rate, ok := pass(i == 1)
		if !ok {
			return
		}
		if i == 1 {
			traced = rate
		} else {
			plain = append(plain, rate)
		}
	}
	r.set("host.cpu_util", cpu.util())
	r.set("mc.states_per_s", median(plain))
	r.set("bench.span_overhead_pct", 100*(median(plain)/traced-1))

	// The second use of the same layer: CI's conformance-exhaustive 3x3
	// window-2 depth-14 exploration, which completes, deadlocks and runs
	// liveness probes, for all three mechanisms.
	const k = 3
	face := []mc.Inject{
		{Src: 0, Dst: k + 1, Length: 2}, {Src: 1, Dst: k, Length: 2},
		{Src: k + 1, Dst: 0, Length: 2}, {Src: k, Dst: 1, Length: 2},
	}
	id := tr.begin("mc.Check face3x3", root)
	for _, mech := range []string{"ndm", "pdm", "cmh"} {
		res, err := mc.Check(mc.Options{K: k, N: 2, Mechanism: mech, Script: face,
			InjectWindow: int(o.pick(2, 0)), MaxDepth: int(o.pick(14, 6))})
		if r.op(err, "mc.Check face3x3 "+mech) {
			r.check(res.Violation == nil && res.Complete, "face3x3 %s: violation %v, complete %v", mech, res.Violation, res.Complete)
		}
	}
	tr.end(id)
	r.set("mc.face3x3_wall_ms", 1e3*tr.durations("mc.Check face3x3")[0])
}
