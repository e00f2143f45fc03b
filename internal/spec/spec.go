// Package spec is the one description of a simulation run by names and
// numbers: topology, router, workload, routing, detector, recovery, phases
// and seed. It is the only home of the run defaults (Default), of their check
// (Validate), of the translation of names into the engine's factories
// (SimConfig) and of the workload flags every command shares (AddFlags).
// wormnet.Config embeds a Run, exp.Options embeds one as the base every table
// cell copies, and mc builds its engine through one.
package spec

import (
	"flag"
	"fmt"
	"strconv"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// Pattern names a message destination distribution (paper Section 4).
type Pattern string

// Destination distributions.
const (
	Uniform        Pattern = "uniform"
	Locality       Pattern = "locality"
	BitReversal    Pattern = "bit-reversal"
	PerfectShuffle Pattern = "perfect-shuffle"
	Butterfly      Pattern = "butterfly"
	HotSpot        Pattern = "hot-spot"
	// Transpose and Tornado extend the paper's workloads with two further
	// classic adversarial patterns.
	Transpose Pattern = "transpose"
	Tornado   Pattern = "tornado"
)

// Mechanism names a deadlock detection mechanism.
type Mechanism string

// Detection mechanisms.
const (
	// NDM is the paper's mechanism (Section 3).
	NDM Mechanism = "ndm"
	// PDM is the previous mechanism it improves on (Section 2).
	PDM Mechanism = "pdm"
	// SourceAge, SourceStall and HeaderBlock are the crude timeout
	// heuristics referenced in the introduction.
	SourceAge   Mechanism = "src-age"
	SourceStall Mechanism = "src-stall"
	HeaderBlock Mechanism = "hdr-block"
	// CMH is Chandy–Misra–Haas edge chasing: blocked headers launch probe
	// control messages along the wait-for graph, and a probe returning to a
	// channel held by its initiator proves a cycle. Unlike the router-local
	// mechanisms its control messages consume link bandwidth (see
	// internal/probe and the Probe* Run knobs).
	CMH Mechanism = "cmh"
	// NoDetection disables detection (and therefore recovery).
	NoDetection Mechanism = "none"
)

// ProbeTransport names how CMH probe flits share physical links with data.
type ProbeTransport string

// Probe transports.
const (
	// ProbeStealIdle moves probes only across links that carried no data
	// flit this cycle (the default).
	ProbeStealIdle ProbeTransport = "steal-idle"
	// ProbeControlVC models a dedicated control virtual channel: one probe
	// flit per link per cycle regardless of data traffic.
	ProbeControlVC ProbeTransport = "ctrl-vc"
)

// ProbeVictim names CMH's victim-selection policy.
type ProbeVictim string

// Probe victim policies.
const (
	// ProbeVictimLocal marks the probe's initiator (the default).
	ProbeVictimLocal ProbeVictim = "local"
	// ProbeVictimOldest marks the oldest message the probe visited.
	ProbeVictimOldest ProbeVictim = "oldest"
)

// Routing names a routing algorithm.
type Routing string

// Routing algorithms.
const (
	// Adaptive is the paper's true fully adaptive minimal routing: any
	// virtual channel of any profitable physical channel. Deadlock-prone;
	// pair it with detection + recovery.
	Adaptive Routing = "adaptive"
	// DOR is deterministic dimension-order routing with Dally-Seitz
	// virtual channel classes: deadlock-free, no detection needed.
	DOR Routing = "dor"
	// Duato is Duato's protocol: fully adaptive over the adaptive virtual
	// channels with a dimension-order escape path. Deadlock-free.
	Duato Routing = "duato"
)

// Recovery names a deadlock recovery style.
type Recovery string

// Recovery styles.
const (
	// Progressive absorbs the deadlocked message at the node holding its
	// header and re-injects it there (software-based recovery).
	Progressive Recovery = "progressive"
	// Regressive kills the deadlocked message and retries from the source
	// (abort-and-retry).
	Regressive Recovery = "regressive"
)

// Lengths describes the message length distribution. Set Fixed for a
// constant size, or Short/Long/PShort for the paper's bimodal "sl" mix.
type Lengths struct {
	Fixed  int
	Short  int
	Long   int
	PShort float64
}

// Len16 etc. are the paper's standard workloads.
var (
	Len16  = Lengths{Fixed: 16}
	Len64  = Lengths{Fixed: 64}
	Len256 = Lengths{Fixed: 256}
	LenSL  = Lengths{Short: 16, Long: 64, PShort: 0.6}
)

func (l Lengths) dist() (traffic.LengthDist, error) {
	if l.Fixed > 0 {
		return traffic.Fixed(l.Fixed), nil
	}
	if l.Short > 0 && l.Long > 0 {
		return traffic.Bimodal{Short: l.Short, Long: l.Long, PShort: l.PShort}, nil
	}
	return nil, fmt.Errorf("wormnet: empty Lengths")
}

// Run describes one simulation run. The zero value is not runnable; start
// from Default.
type Run struct {
	// K-ary N-cube topology (the paper evaluates K=8, N=3: 512 nodes).
	K, N int

	// Router microarchitecture: virtual channels per physical channel,
	// flit buffer depth per VC, injection/delivery ports per node.
	VirtualChannels int
	BufferFlits     int
	Ports           int

	// Workload.
	Pattern Pattern
	// LocalityRadius applies to the Locality pattern and must be at least 1.
	LocalityRadius int
	// HotFraction applies to the HotSpot pattern: the share of traffic
	// destined for node 0, in [0, 1].
	HotFraction float64
	Lengths     Lengths
	// Load is the offered traffic in flits/cycle/node, generated by the
	// paper's Bernoulli process.
	Load float64

	// Routing selects the routing algorithm (Default: the paper's true
	// fully adaptive routing). The deadlock-free algorithms (DOR, Duato)
	// must run with Mechanism == NoDetection.
	Routing Routing

	// Detection mechanism and its threshold (t2 for NDM); every mechanism
	// but NoDetection needs a threshold of at least 1.
	Mechanism Mechanism
	Threshold int64
	// T1 is NDM's short threshold, at least 1 and at most Threshold.
	T1 int64
	// SelectivePromotion enables the selective P->G re-arming variant the
	// paper mentions as future work (default: the paper's simple policy).
	SelectivePromotion bool

	// CMH-only knobs; ignored by the other mechanisms. Threshold doubles
	// as CMH's probe initiation delay, and the hop cap must be at least 1.
	ProbeTransport ProbeTransport
	ProbeVictim    ProbeVictim
	ProbeMaxHops   int

	// Recovery style for marked messages.
	Recovery Recovery

	// InjectionLimit is the injection-limitation threshold (maximum busy
	// network output VCs that still admits a new message); negative
	// disables the mechanism.
	InjectionLimit int

	// Simulation phases in cycles, and the RNG seed.
	Warmup, Measure int64
	Seed            uint64

	// OracleEvery > 0 additionally runs the global deadlock oracle every
	// so many cycles to measure actual deadlock frequency.
	OracleEvery int64
}

// Default returns the paper's baseline: 8-ary 3-cube, 3 VCs with 4-flit
// buffers, 4 ports, uniform 16-flit traffic at a moderate load, NDM with
// t1=1 and t2=32, progressive recovery, injection limitation on. It is the
// only place a run default is written down: below it, every zero or empty
// field means what it says or is refused.
func Default() Run {
	return Run{
		K: 8, N: 3,
		VirtualChannels: 3,
		BufferFlits:     4,
		Ports:           4,
		Pattern:         Uniform,
		Routing:         Adaptive,
		LocalityRadius:  2,
		HotFraction:     0.05,
		Lengths:         Len16,
		Load:            0.3,
		Mechanism:       NDM,
		Threshold:       32,
		T1:              1,
		ProbeTransport:  ProbeStealIdle,
		ProbeVictim:     ProbeVictimLocal,
		ProbeMaxHops:    64,
		Recovery:        Progressive,
		// Of the 18 output VCs per node (6 channels x 3 VCs), admit a new
		// message only while at most a third are busy: the calibration that
		// reproduces the paper's low false-detection regime (EXPERIMENTS.md).
		InjectionLimit: 6,
		Warmup:         5_000,
		Measure:        30_000,
		Seed:           1,
	}
}

// Validate reports the first reason the run cannot be simulated, an unknown
// name or a number out of range: it is nil exactly when SimConfig succeeds.
func (r Run) Validate() error {
	_, err := r.SimConfig()
	return err
}

func (r Run) patternFactory() (sim.PatternFactory, error) {
	switch r.Pattern {
	case Uniform:
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewUniform(t) }, nil
	case Locality:
		rad := r.LocalityRadius
		if rad < 1 {
			return nil, fmt.Errorf("wormnet: locality radius %d, want at least 1", rad)
		}
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewLocality(t, rad) }, nil
	case BitReversal:
		return r.bitPermutation(traffic.NewBitReversal)
	case PerfectShuffle:
		return r.bitPermutation(traffic.NewPerfectShuffle)
	case Butterfly:
		return r.bitPermutation(traffic.NewButterfly)
	case HotSpot:
		frac := r.HotFraction
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("wormnet: hot-spot fraction %g, want one in [0, 1]", frac)
		}
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewHotSpot(t, 0, frac) }, nil
	case Transpose:
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewTranspose(t) }, nil
	case Tornado:
		if r.K < 3 {
			return nil, fmt.Errorf("wormnet: tornado needs a radix of at least 3, got k=%d", r.K)
		}
		return func(t *topology.Torus) traffic.Pattern { return traffic.NewTornado(t) }, nil
	default:
		return nil, fmt.Errorf("wormnet: unknown pattern %q", r.Pattern)
	}
}

// bitPermutation returns build if the network has the power-of-two node
// count the bit permutations need, which k^n is exactly when k is a power of
// two.
func (r Run) bitPermutation(build sim.PatternFactory) (sim.PatternFactory, error) {
	if r.K&(r.K-1) != 0 {
		return nil, fmt.Errorf("wormnet: %s needs a power-of-two radix, got k=%d", r.Pattern, r.K)
	}
	return build, nil
}

// mechanism describes the configured detector for sim.Mechanism.Factory,
// the one place mechanism names are resolved.
func (r Run) mechanism() (sim.Mechanism, error) {
	m := sim.Mechanism{Name: string(r.Mechanism), Threshold: r.Threshold, T1: r.T1}
	if r.SelectivePromotion {
		m.Promotion = detect.PromoteWaiting
	}
	if r.Mechanism != CMH {
		return m, nil
	}
	m.Probe.MaxHops = int32(r.ProbeMaxHops)
	switch r.ProbeTransport {
	case ProbeStealIdle:
		m.Probe.Transport = probe.TransportStealIdle
	case ProbeControlVC:
		m.Probe.Transport = probe.TransportControlVC
	default:
		return m, fmt.Errorf("wormnet: unknown probe transport %q", r.ProbeTransport)
	}
	switch r.ProbeVictim {
	case ProbeVictimLocal:
		m.Probe.Victim = probe.VictimLocal
	case ProbeVictimOldest:
		m.Probe.Victim = probe.VictimOldest
	default:
		return m, fmt.Errorf("wormnet: unknown probe victim %q", r.ProbeVictim)
	}
	return m, nil
}

// sourceQueue bounds every node's source queue: while 16 messages wait, the
// node generates no more.
const sourceQueue = 16

// SimConfig translates the description into the engine configuration: the
// names become factories, and the result passes sim.Config.Validate. The
// caller attaches what a description does not hold (rails, a chooser).
func (r Run) SimConfig() (sim.Config, error) {
	var sc sim.Config
	pat, err := r.patternFactory()
	if err != nil {
		return sc, err
	}
	dist, err := r.Lengths.dist()
	if err != nil {
		return sc, err
	}
	alg, ok := routing.ByName(string(r.Routing))
	if !ok {
		return sc, fmt.Errorf("wormnet: unknown routing %q", r.Routing)
	}
	mech, err := r.mechanism()
	if err != nil {
		return sc, err
	}
	if inputs := 2*r.N + r.Ports; mech.Name == string(NDM) && inputs > detect.NDMMaxInputs {
		return sc, fmt.Errorf("wormnet: ndm monitors at most %d input channels per router, %d-cube routers with %d ports have %d",
			detect.NDMMaxInputs, r.N, r.Ports, inputs)
	}
	det, err := mech.Factory()
	if err != nil {
		return sc, fmt.Errorf("wormnet: %w", err)
	}
	var rec recovery.Style
	switch r.Recovery {
	case Progressive:
		rec = recovery.Progressive
	case Regressive:
		rec = recovery.Regressive
	default:
		return sc, fmt.Errorf("wormnet: unknown recovery %q", r.Recovery)
	}
	if r.OracleEvery < 0 {
		return sc, fmt.Errorf("wormnet: oracle interval %d, want 0 (only at detections) or more", r.OracleEvery)
	}
	sc = sim.Config{
		K: r.K, N: r.N,
		Router:  router.Config{VCsPerLink: r.VirtualChannels, BufFlits: r.BufferFlits, InjPorts: r.Ports, DelPorts: r.Ports},
		Pattern: pat, Lengths: dist, Load: r.Load,
		Routing: alg, Detector: det, Recovery: rec,
		InjectionLimit: r.InjectionLimit, MaxSourceQueue: sourceQueue, OracleEvery: r.OracleEvery,
		Warmup: r.Warmup, Measure: r.Measure, Seed: r.Seed,
	}
	if err := sc.Validate(); err != nil {
		return sc, fmt.Errorf("wormnet: %w", err)
	}
	return sc, nil
}

// AddFlags registers the named workload flags on fs, each bound to its Run
// field with the field's current value as the default, so every command
// states its own defaults by setting them before the call. The names are
// k, n, vcs, buf, pattern, len, load, th, selective, seed, warmup and
// measure; usage rewords individual flags, by name, for commands where they
// mean something narrower than the shared text.
func (r *Run) AddFlags(fs *flag.FlagSet, names []string, usage map[string]string) {
	for _, name := range names {
		switch name {
		case "k":
			fs.IntVar(&r.K, name, r.K, "radix of the k-ary n-cube")
		case "n":
			fs.IntVar(&r.N, name, r.N, "dimensions of the k-ary n-cube")
		case "vcs":
			fs.IntVar(&r.VirtualChannels, name, r.VirtualChannels, "virtual channels per physical channel")
		case "buf":
			fs.IntVar(&r.BufferFlits, name, r.BufferFlits, "flit buffer depth per virtual channel")
		case "pattern":
			fs.StringVar((*string)(&r.Pattern), name, string(r.Pattern),
				"traffic pattern: uniform|locality|bit-reversal|perfect-shuffle|butterfly|hot-spot|transpose|tornado")
		case "len":
			fs.Var((*lengthFlag)(&r.Lengths), name, "message length in `flits` (0 selects the bimodal sl mix)")
		case "load":
			fs.Float64Var(&r.Load, name, r.Load, "offered load in flits/cycle/node")
		case "th":
			fs.Int64Var(&r.Threshold, name, r.Threshold, "detection threshold in cycles (t2 for ndm, probe initiation delay for cmh)")
		case "selective":
			fs.BoolVar(&r.SelectivePromotion, name, r.SelectivePromotion, "use the selective P->G promotion variant of ndm")
		case "seed":
			fs.Uint64Var(&r.Seed, name, r.Seed, "random seed")
		case "warmup":
			fs.Int64Var(&r.Warmup, name, r.Warmup, "warm-up cycles per run")
		case "measure":
			fs.Int64Var(&r.Measure, name, r.Measure, "measured cycles per run")
		default:
			panic("spec: no workload flag -" + name)
		}
	}
	for name, text := range usage {
		fs.Lookup(name).Usage = text
	}
}

// lengthFlag is -len: a fixed message length in flits, or 0 for LenSL.
type lengthFlag Lengths

func (l *lengthFlag) String() string {
	return strconv.Itoa(l.Fixed)
}

func (l *lengthFlag) Set(s string) error {
	n, err := strconv.Atoi(s)
	switch {
	case err != nil:
		return err
	case n < 0:
		return fmt.Errorf("want a length of at least 0 (0 selects the bimodal sl mix), got %d", n)
	case n == 0:
		*l = lengthFlag(LenSL)
	default:
		*l = lengthFlag{Fixed: n}
	}
	return nil
}
