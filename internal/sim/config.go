// Package sim is the cycle-driven simulation engine that drives the router
// fabric, the traffic workload, the deadlock detection mechanism under test
// and the recovery engine, and accumulates the statistics the paper
// reports.
//
// Timing model (paper Section 4.1): routing takes one cycle (an output
// assigned in cycle T carries its first flit in cycle T+1) and crossbar plus
// channel transmission take one cycle per flit per hop; one flit crosses
// each physical channel per cycle, and one flit leaves each input physical
// channel per cycle (the crossbar port constraint).
package sim

import (
	"fmt"

	"wormnet/internal/detect"
	"wormnet/internal/metrics"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// PatternFactory builds a traffic pattern once the topology exists.
type PatternFactory func(*topology.Torus) traffic.Pattern

// DetectorFactory builds the detection mechanism once the fabric exists.
type DetectorFactory func(*router.Fabric) detect.Detector

// ProcessFactory builds a custom injection process once the topology
// exists, overriding the default Bernoulli process.
type ProcessFactory func(*topology.Torus) traffic.Process

// Config fully describes one simulation run.
type Config struct {
	// K and N select the k-ary n-cube (the paper uses K=8, N=3).
	K, N int

	// Router holds the fabric parameters (VCs per channel, buffer depth,
	// injection/delivery ports).
	Router router.Config

	// Pattern and Lengths define the workload; Load is the offered traffic
	// in flits/cycle/node.
	Pattern PatternFactory
	Lengths traffic.LengthDist
	Load    float64

	// Process, when non-nil, replaces the default Bernoulli injection
	// process built from Pattern, Lengths and Load (e.g. a bursty source
	// model). Pattern, Lengths and Load are then ignored for generation.
	Process ProcessFactory

	// Routing selects the routing algorithm; nil means the paper's true
	// fully adaptive routing. Deadlock detection requires an algorithm
	// that uses all virtual channels uniformly (only true fully adaptive
	// qualifies), because the detection hardware monitors physical
	// channels.
	Routing routing.Algorithm

	// Detector builds the detection mechanism under test. Nil means no
	// detection (and therefore no recovery).
	Detector DetectorFactory

	// Recovery selects how marked messages are removed from the network.
	Recovery recovery.Style

	// InjectionLimit is the injection-limitation threshold of López &
	// Duato: a new message may enter only while the number of busy virtual
	// channels among the node's network output channels is at most this
	// value. Negative disables the mechanism.
	InjectionLimit int

	// MaxSourceQueue bounds each node's source queue; while full, message
	// generation at that node pauses. Zero selects the default (16).
	MaxSourceQueue int

	// Warmup and Measure are the lengths, in cycles, of the warm-up and
	// measurement phases.
	Warmup, Measure int64

	// OracleEvery, when positive, runs the global deadlock oracle every
	// that many cycles to measure actual deadlock frequency. The oracle
	// always runs on the cycles where messages are marked, to classify the
	// detection as true or false.
	OracleEvery int64

	// Seed makes the run reproducible.
	Seed uint64

	// Trace, when non-nil, attaches the flight recorder: the engine (and
	// the detector, if its capability report has a tracer hook) emit event
	// records into it. Tracing is pure observation — it never changes simulation
	// behavior — and the nil default costs one branch per emit site and
	// zero allocations. Recorders are not safe for concurrent use, so
	// concurrent sweeps must attach a distinct Recorder per run (the
	// harness's TraceDir option does exactly that).
	Trace *trace.Recorder

	// Metrics, when non-nil, attaches the live telemetry collector: the
	// engine updates its counters at the same instrumentation sites the
	// flight recorder uses and lets its sampler snapshot network state every
	// window. Like tracing, metrics are pure observation — simulation output
	// is byte-identical with or without them — and the nil default costs one
	// branch per site with zero allocations. A Collector is single-run
	// (Attach panics on reuse), so concurrent sweeps must build one per run,
	// as the harness's SeriesDir option does.
	Metrics *metrics.Collector

	// Chooser, when non-nil, resolves the engine's nondeterministic
	// decision points (VC selection, arbitration winners) externally
	// instead of with the seeded RNG and round-robin pointers, so a driver
	// can enumerate every interleaving (see internal/mc).
	Chooser Chooser

	// Debug enables per-cycle fabric invariant checking and active-set
	// auditing (slow): every active-set list is cross-checked against a
	// full rescan each cycle, and the detector's own audit
	// (detect.Capabilities.Audit) must pass.
	Debug bool

	// RetainMessages keeps delivered messages allocated instead of
	// recycling them into the pool, so tests and tools can inspect their
	// final state (Phase, DeliverTime). Long measurement runs should leave
	// this off.
	RetainMessages bool
}

// DefaultConfig returns the paper's baseline configuration: an 8-ary 3-cube
// with the default router, uniform traffic, 16-flit messages, NDM detection
// with threshold 32, progressive recovery, and the injection-limitation
// mechanism enabled.
func DefaultConfig() Config {
	return Config{
		K:      8,
		N:      3,
		Router: router.DefaultConfig(),
		Pattern: func(t *topology.Torus) traffic.Pattern {
			return traffic.NewUniform(t)
		},
		Lengths: traffic.Fixed(16),
		Load:    0.2,
		Detector: func(f *router.Fabric) detect.Detector {
			return detect.NewNDM(f, 32)
		},
		Recovery:       recovery.Progressive,
		InjectionLimit: 6,
		MaxSourceQueue: 16,
		Warmup:         10_000,
		Measure:        50_000,
		Seed:           1,
	}
}

func (c *Config) validate() error {
	switch {
	case c.K < 2 || c.N < 1:
		return fmt.Errorf("sim: invalid topology %d-ary %d-cube", c.K, c.N)
	case c.Process == nil && c.Pattern == nil:
		return fmt.Errorf("sim: Pattern is required")
	case c.Process == nil && c.Lengths == nil:
		return fmt.Errorf("sim: Lengths is required")
	case c.Load < 0:
		return fmt.Errorf("sim: negative Load")
	case c.Warmup < 0 || c.Measure <= 0:
		return fmt.Errorf("sim: Warmup must be >= 0 and Measure > 0")
	}
	if c.MaxSourceQueue == 0 {
		c.MaxSourceQueue = 16
	}
	if c.Routing == nil {
		c.Routing = routing.TrueFullyAdaptive{}
	}
	if c.Router.VCsPerLink < c.Routing.MinVCs() {
		return fmt.Errorf("sim: %s requires at least %d virtual channels, got %d",
			c.Routing.Name(), c.Routing.MinVCs(), c.Router.VCsPerLink)
	}
	if c.Detector != nil && !c.Routing.UniformVCs() {
		return fmt.Errorf("sim: detection monitors physical channels and requires a routing algorithm that uses all virtual channels uniformly; %s does not (disable detection: it is deadlock-free by construction)",
			c.Routing.Name())
	}
	return nil
}
