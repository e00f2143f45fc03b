// Package exp is the experiment harness that regenerates the paper's
// evaluation, Tables 1 through 7 (plus the extension Table 8, which reruns
// the uniform grid under the CMH edge-chasing detector): the percentage of
// messages detected as possibly deadlocked, for each detection mechanism,
// message destination distribution, message length mix, network load and
// detection threshold.
package exp

import (
	"fmt"
	"io"
	"strings"

	"wormnet/internal/detect"
	"wormnet/internal/harness"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// Mechanism selects the detection mechanism a table evaluates.
type Mechanism string

// Mechanisms used by the paper's tables, plus the CMH edge-chasing
// baseline evaluated in the extension table.
const (
	MechPDM Mechanism = "PDM"
	MechNDM Mechanism = "NDM"
	MechCMH Mechanism = "CMH"
)

// Size is one message-length column of a table.
type Size struct {
	// Key is the paper's column label: "s" (16 flits), "l" (64), "L" (256)
	// or "sl" (60% 16-flit + 40% 64-flit).
	Key  string
	Dist traffic.LengthDist
}

// standard length columns.
var (
	SizeS  = Size{Key: "s", Dist: traffic.Fixed(16)}
	SizeL  = Size{Key: "l", Dist: traffic.Fixed(64)}
	SizeLL = Size{Key: "L", Dist: traffic.Fixed(256)}
	SizeSL = Size{Key: "sl", Dist: traffic.Bimodal{Short: 16, Long: 64, PShort: 0.6}}
)

// Table describes one of the paper's evaluation tables.
type Table struct {
	// ID is the paper's table number, 1..7 (8 is the CMH extension).
	ID int
	// Mechanism under test (Table 1 uses PDM, the rest NDM).
	Mechanism Mechanism
	// PatternName identifies the destination distribution.
	PatternName string
	// Pattern builds the distribution for a topology.
	Pattern sim.PatternFactory
	// Rates are the paper's injection rates in flits/cycle/node on the
	// 8-ary 3-cube; the last one is the saturated load.
	Rates []float64
	// Sizes are the message-length columns.
	Sizes []Size
	// Thresholds is the swept detection threshold (t2 for NDM).
	Thresholds []int64
}

func thresholds(max int64) []int64 {
	var ths []int64
	for t := int64(2); t <= max; t *= 2 {
		ths = append(ths, t)
	}
	return ths
}

// PaperTables returns the specifications of Tables 1 through 7 exactly as
// evaluated in the paper, plus the CMH extension Table 8.
func PaperTables() []Table {
	uniform := func(t *topology.Torus) traffic.Pattern { return traffic.NewUniform(t) }
	all := []Size{SizeS, SizeL, SizeLL, SizeSL}
	three := []Size{SizeS, SizeL, SizeSL}
	return []Table{
		{
			ID: 1, Mechanism: MechPDM, PatternName: "uniform", Pattern: uniform,
			Rates: []float64{0.428, 0.471, 0.514, 0.600},
			Sizes: all, Thresholds: thresholds(1024),
		},
		{
			ID: 2, Mechanism: MechNDM, PatternName: "uniform", Pattern: uniform,
			Rates: []float64{0.428, 0.471, 0.514, 0.600},
			Sizes: all, Thresholds: thresholds(1024),
		},
		{
			ID: 3, Mechanism: MechNDM, PatternName: "locality",
			Pattern: func(t *topology.Torus) traffic.Pattern { return traffic.NewLocality(t, 2) },
			Rates:   []float64{1.429, 1.571, 1.857, 2.000},
			Sizes:   three, Thresholds: thresholds(128),
		},
		{
			ID: 4, Mechanism: MechNDM, PatternName: "bit-reversal",
			Pattern: func(t *topology.Torus) traffic.Pattern { return traffic.NewBitReversal(t) },
			Rates:   []float64{0.352, 0.386, 0.421, 0.451},
			Sizes:   three, Thresholds: thresholds(256),
		},
		{
			ID: 5, Mechanism: MechNDM, PatternName: "perfect-shuffle",
			Pattern: func(t *topology.Torus) traffic.Pattern { return traffic.NewPerfectShuffle(t) },
			Rates:   []float64{0.214, 0.250, 0.286, 0.320},
			Sizes:   three, Thresholds: thresholds(1024),
		},
		{
			ID: 6, Mechanism: MechNDM, PatternName: "butterfly",
			Pattern: func(t *topology.Torus) traffic.Pattern { return traffic.NewButterfly(t) },
			Rates:   []float64{0.107, 0.118, 0.129, 0.139},
			Sizes:   three, Thresholds: thresholds(1024),
		},
		{
			ID: 7, Mechanism: MechNDM, PatternName: "hot-spot",
			Pattern: func(t *topology.Torus) traffic.Pattern { return traffic.NewHotSpot(t, 0, 0.05) },
			Rates:   []float64{0.0628, 0.0707, 0.0786, 0.0862},
			Sizes:   three, Thresholds: thresholds(1024),
		},
		// Table 8 is not in the paper: it reruns Table 1/2's uniform-traffic
		// grid under the Chandy–Misra–Haas edge-chasing detector, with the
		// threshold column reinterpreted as the probe initiation delay, so
		// the three mechanisms can be compared cell for cell.
		{
			ID: 8, Mechanism: MechCMH, PatternName: "uniform", Pattern: uniform,
			Rates: []float64{0.428, 0.471, 0.514, 0.600},
			Sizes: all, Thresholds: thresholds(1024),
		},
	}
}

// PaperTable returns the specification of table id (1..8).
func PaperTable(id int) (Table, error) {
	for _, t := range PaperTables() {
		if t.ID == id {
			return t, nil
		}
	}
	return Table{}, fmt.Errorf("exp: no such table %d", id)
}

// Options control how a table is reproduced.
type Options struct {
	// K and N select the network; the paper uses 8 and 3. Smaller networks
	// run much faster; combine with RelativeRates to keep loads meaningful.
	K, N int
	// Warmup and Measure are the simulation phases per cell, in cycles.
	Warmup, Measure int64
	// Seed makes the sweep reproducible; cell c uses Seed+c.
	Seed uint64
	// Repeats runs each cell this many times with different seeds and
	// averages the detection percentage (0 or 1 = single run). The paper
	// reports single runs; repeats quantify run-to-run spread via PctStd.
	Repeats int
	// InjectionLimit is the injection-limitation threshold (busy network
	// output VCs); negative disables. The paper keeps the mechanism on.
	InjectionLimit int
	// RelativeRates reinterprets each table's rates as fractions of its
	// saturated (last) rate, scaled by the measured saturation throughput
	// of the configured network. Use when K, N differ from the paper's
	// 8-ary 3-cube, where the absolute rates would be meaningless.
	RelativeRates bool
	// Promotion selects the NDM P->G re-arming policy.
	Promotion detect.PromotionPolicy
	// Progress, when non-nil, is called after each finished cell.
	Progress func(done, total int)
	// Workers bounds the number of cells simulated concurrently; values
	// < 1 select GOMAXPROCS. Results are independent of Workers: every
	// run's seed is a pure function of (Seed, cell index, repeat index).
	Workers int
	// Journal is the path of a harness checkpoint journal ("" disables);
	// with Resume, cells already journaled are loaded instead of re-run.
	Journal string
	Resume  bool
	// ProgressWriter, when non-nil, receives the harness's live progress
	// line (runs done, ETA, worker utilization).
	ProgressWriter io.Writer
	// Observe configures per-cell flight-recorder and metrics-series dumps
	// (see harness.Observe).
	Observe harness.Observe
}

// DefaultOptions returns full-scale reproduction settings (the paper's
// 512-node 8-ary 3-cube).
func DefaultOptions() Options {
	return Options{
		K: 8, N: 3,
		Warmup:  5_000,
		Measure: 30_000,
		Seed:    1,
		// With 6 network channels x 3 VCs = 18 output VCs per node, admit
		// a new message only while at most a third are busy. This is the
		// calibration knob of the López/Duato injection-limitation
		// mechanism; 6 reproduces the paper's low false-detection regime
		// (see EXPERIMENTS.md for the sensitivity probe).
		InjectionLimit: 6,
	}
}

// Cell is one measured table entry.
type Cell struct {
	Threshold int64
	Rate      float64 // actual offered rate in flits/cycle/node
	SizeKey   string
	// Pct is the percentage of messages detected as possibly deadlocked
	// (averaged over repeats when Options.Repeats > 1).
	Pct float64
	// PctStd is the across-repeat sample standard deviation of Pct (zero
	// for single runs).
	PctStd float64
	// PctCI is the half-width of the 95% confidence interval for Pct
	// (zero for single runs).
	PctCI float64
	// TrueDeadlock reports whether actual deadlocks were detected in this
	// cell (the paper's "(*)" annotation) in any repeat.
	TrueDeadlock bool
	// Delivered and Marked are the raw counts behind Pct, summed over
	// repeats.
	Delivered, Marked int64
}

// Result is a fully measured table.
type Result struct {
	Table   Table
	Options Options
	// Rates holds the offered rates actually used (equal to Table.Rates
	// unless RelativeRates rescaled them).
	Rates []float64
	// Cells is indexed [threshold][rate][size] following the spec order.
	Cells [][][]Cell
}

// Run reproduces a table. Each (cell, repeat) is an independent simulation
// run; the runs are scheduled across Options.Workers goroutines by the
// sweep harness. The measured table is independent of Workers — every
// run's seed is a pure function of (Options.Seed, cell index, repeat
// index) — and, with Options.Journal set, an interrupted sweep resumes
// from the journaled cells.
func Run(tbl Table, opt Options) (*Result, error) {
	if opt.K == 0 || opt.N == 0 {
		return nil, fmt.Errorf("exp: options missing topology")
	}
	rates := append([]float64(nil), tbl.Rates...)
	if opt.RelativeRates {
		sat, err := EstimateSaturation(tbl.Pattern, SizeS.Dist, opt)
		if err != nil {
			return nil, err
		}
		// Anchor the paper's highest NON-saturated rate (the penultimate
		// column) at the measured saturation boundary: the lower rates land
		// below saturation and the last column proportionally beyond it,
		// matching the paper's "several loads near saturation, the last one
		// saturated" methodology.
		base := tbl.Rates[len(tbl.Rates)-2]
		for i, r := range tbl.Rates {
			rates[i] = r / base * sat
		}
	}
	res := &Result{Table: tbl, Options: opt, Rates: rates}

	// Expand the table grid into harness points in threshold -> rate ->
	// size order, the order the legacy serial sweep used, so the per-cell
	// seeds (and therefore every measured number) are unchanged.
	var points []harness.Point
	for _, th := range tbl.Thresholds {
		for _, rate := range rates {
			for _, size := range tbl.Sizes {
				cfg, err := cellConfig(tbl, opt, th, rate, size)
				if err != nil {
					return nil, err
				}
				points = append(points, harness.Point{
					Key:    fmt.Sprintf("th=%d/rate=%.6g/%s", th, rate, size.Key),
					Config: cfg,
				})
			}
		}
	}
	seed := opt.Seed
	sweep, err := harness.Run(points, harness.Options{
		Workers:    opt.Workers,
		Replicates: max(opt.Repeats, 1),
		BaseSeed:   opt.Seed,
		// Legacy derivation, predating rng.Derive: keeps every published
		// table reproducible from the same -seed.
		SeedFunc: func(point, rep int) uint64 {
			return seed + uint64(point)*0x9e3779b9 + uint64(rep)*0x2545f491
		},
		Journal:     opt.Journal,
		Resume:      opt.Resume,
		Progress:    opt.ProgressWriter,
		OnPointDone: opt.Progress,
		Observe:     opt.Observe,
	})
	if err != nil {
		return nil, err
	}

	res.Cells = make([][][]Cell, len(tbl.Thresholds))
	idx := 0
	for ti, th := range tbl.Thresholds {
		res.Cells[ti] = make([][]Cell, len(rates))
		for ri, rate := range rates {
			res.Cells[ti][ri] = make([]Cell, len(tbl.Sizes))
			for si, size := range tbl.Sizes {
				pr := &sweep[idx]
				idx++
				if !pr.OK() {
					return nil, fmt.Errorf("exp: cell %s: %s", pr.Key, pr.Err())
				}
				cell := Cell{Threshold: th, Rate: rate, SizeKey: size.Key}
				pcts := pr.Metric((*sim.Result).PctMarked)
				cell.Pct = pcts.Mean
				cell.PctStd = pcts.Std
				cell.PctCI = pcts.CI95
				for _, r := range pr.Runs {
					cell.TrueDeadlock = cell.TrueDeadlock || r.TrueMarked > 0
					cell.Delivered += r.Delivered
					cell.Marked += r.Marked
				}
				res.Cells[ti][ri][si] = cell
			}
		}
	}
	return res, nil
}

// cellConfig builds the simulation for one table cell; the harness fills in
// the per-repeat seed.
func cellConfig(tbl Table, opt Options, th int64, rate float64, size Size) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.K, cfg.N = opt.K, opt.N
	cfg.Pattern = tbl.Pattern
	cfg.Lengths = size.Dist
	cfg.Load = rate
	cfg.InjectionLimit = opt.InjectionLimit
	cfg.Warmup, cfg.Measure = opt.Warmup, opt.Measure
	// Table mechanisms are the sim.Mechanism names in the paper's capitals.
	var err error
	cfg.Detector, err = sim.Mechanism{
		Name:      strings.ToLower(string(tbl.Mechanism)),
		Threshold: th,
		Promotion: opt.Promotion,
	}.Factory()
	return cfg, err
}

// EstimateSaturation locates the saturation load of the configured network
// under the given pattern: the largest offered load the network still
// tracks (accepted throughput at least 95% of offered). This is the proper
// criterion for non-uniform workloads such as hot-spot traffic, where the
// aggregate throughput keeps rising long after the hot region has
// saturated and latency has diverged.
//
// The estimate first measures the throughput ceiling under unbounded
// offered load, then bisects the tracking boundary below it.
func EstimateSaturation(pattern sim.PatternFactory, lengths traffic.LengthDist, opt Options) (float64, error) {
	probe := func(load float64) (offered, accepted float64, err error) {
		cfg := sim.DefaultConfig()
		cfg.K, cfg.N = opt.K, opt.N
		cfg.Pattern = pattern
		cfg.Lengths = lengths
		cfg.Load = load
		cfg.InjectionLimit = opt.InjectionLimit
		cfg.Warmup = opt.Warmup * 2
		cfg.Measure = opt.Measure / 2
		if cfg.Measure < 2000 {
			cfg.Measure = 2000
		}
		cfg.Seed = opt.Seed
		eng, err := sim.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		r, err := eng.Run()
		if err != nil {
			return 0, 0, err
		}
		return load, r.Throughput(), nil
	}

	// Throughput ceiling under unbounded load bounds the search.
	_, ceiling, err := probe(100)
	if err != nil {
		return 0, err
	}
	if ceiling <= 0 {
		return 0, fmt.Errorf("exp: network delivered nothing under saturating load")
	}
	lo, hi := 0.0, ceiling*1.25
	for i := 0; i < 7; i++ {
		mid := (lo + hi) / 2
		offered, accepted, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if accepted >= 0.95*offered {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
