// Package mc is a bounded model checker for the detection invariants: it
// exhaustively explores every reachable blocking/advancing/injection
// interleaving of a tiny fabric by driving the real simulation engine
// through its nondeterminism seam (sim.Chooser), and checks the paper's
// correctness claims at every reachable state:
//
//   - safety: the fabric structural invariants, the oracle cross-check, the
//     sparse-kernel active-set audits and the detector's own audit
//     (sim.Config.Debug; detect.Capabilities.Audit — for NDM the flag
//     lattice, DT implies I, among the rest) hold after every cycle;
//   - liveness: from every reachable state whose global-oracle deadlocked
//     set is non-empty, the detector marks and recovery drains the set
//     within a bounded horizon under the deterministic default schedule;
//   - mark economy: draining a deadlocked set produces at least one
//     true-classified mark (the set can only shrink through marking a
//     member), and under Strict exactly one — the paper's one-victim-per-
//     cycle claim — with no engine cycle carrying two true marks.
//
// The checker is sound for the explored bound because the engine is
// deterministic given a choice sequence: a state is its canonical encoding
// (encode.go), the frontier is explored breadth-first so counterexamples
// are cycle-minimal, and any violation is reproducible from its recorded
// choice path (replayable into a trace stream `wormview trace` renders).
package mc

import (
	"cmp"
	"fmt"
	"io"
	"math"

	"wormnet/internal/spec"
)

// Inject is one scripted message: the model checker explores every
// admissible injection time for it within InjectWindow.
type Inject struct {
	Src, Dst, Length int
}

// Options configures one exhaustive check.
type Options struct {
	// K and N select the k-ary n-cube under test (2,2 = the 2x2 torus;
	// 3,2 = the 3x3 torus).
	K, N int
	// VCs and BufFlits size the router (1 VC and small buffers keep
	// 2-message deadlocks reachable and the state space tiny).
	VCs, BufFlits int
	// Mechanism selects the detector family by its sim.Mechanism name;
	// the checker needs one that snapshots its state ("ndm", "pdm", "cmh")
	// or "none" (no detection — every deadlock is a liveness violation; used
	// to generate regression counterexamples).
	Mechanism string
	// Threshold is the mechanism's detection threshold: NDM's t2, PDM's
	// inactivity threshold, CMH's probe initiation delay. Zero selects 4.
	Threshold int64
	// Script is the workload; messages are injected in order, each
	// deferrable by at most InjectWindow cycles.
	Script []Inject
	// InjectWindow bounds how many cycles each scripted injection may be
	// deferred (every deferral is one explored branch). Zero means
	// immediate injection only.
	InjectWindow int
	// MaxDepth bounds the explored depth in cycles; states at MaxDepth are
	// checked but not expanded. Zero explores to fixpoint.
	MaxDepth int
	// Horizon bounds the liveness continuation: from a deadlocked state,
	// the detector must mark and recovery must drain the oracle set within
	// this many default-schedule cycles. Zero selects 8*Threshold + 16*K*N
	// + 64, which covers detection delay, probe round trips and
	// progressive drain on the tiny fabrics this package targets.
	Horizon int
	// Strict additionally requires exactly one true mark per drained
	// deadlock episode and no engine cycle with two true marks (the
	// paper's strongest reading of one-victim-per-cycle; see DESIGN.md
	// §13 for which mechanisms satisfy it).
	Strict bool
	// MaxStates caps the visited-state set as a safety valve. Zero
	// selects 2,000,000.
	MaxStates int
	// Log, when non-nil, receives one-line progress reports.
	Log io.Writer
}

func (o *Options) applyDefaults() error {
	o.VCs, o.BufFlits, o.Threshold = cmp.Or(o.VCs, 1), cmp.Or(o.BufFlits, 2), cmp.Or(o.Threshold, 4)
	switch {
	case o.Horizon < 0 || o.MaxDepth < 0 || o.MaxStates < 0:
		return fmt.Errorf("mc: Horizon %d, MaxDepth %d, MaxStates %d: want 0 (the default) or more",
			o.Horizon, o.MaxDepth, o.MaxStates)
	case len(o.Script) == 0:
		return fmt.Errorf("mc: empty injection script")
	}
	o.Horizon = cmp.Or(o.Horizon, int(8*o.Threshold)+16*o.K*o.N+64)
	o.MaxStates = cmp.Or(o.MaxStates, 2_000_000)
	if err := o.run().Validate(); err != nil {
		return err
	}
	return o.checkEncodable()
}

// maxByte is the widest decision the chooser records: a choice and its arity
// take one byte each in a choice vector (driver.go).
const maxByte = 1<<8 - 1

// checkEncodable rejects what the checker cannot explore soundly: a negative
// deferral window, a router wide enough to offer a decision the one-byte
// choice vectors cannot record, and a script message that does not fit the
// fabric. The canonical state has no field width of its own to bound.
func (o *Options) checkEncodable() error {
	nodes := 1
	for i := 0; i < o.N && nodes <= math.MaxInt32; i++ {
		nodes *= o.K
	}
	switch {
	case o.InjectWindow < 0:
		return fmt.Errorf("mc: InjectWindow %d: want 0 (immediate injection) or more", o.InjectWindow)
	case 2*o.N*o.VCs+1 > maxByte:
		return fmt.Errorf("mc: a router with %d input virtual channels can offer a decision more than %d wide", 2*o.N*o.VCs+1, maxByte)
	}
	for i, in := range o.Script {
		if in.Src < 0 || in.Src >= nodes || in.Dst < 0 || in.Dst >= nodes {
			return fmt.Errorf("mc: script message %d goes %d -> %d on a %d-node fabric", i, in.Src, in.Dst, nodes)
		}
		if in.Length < 1 || in.Length > math.MaxInt32 {
			return fmt.Errorf("mc: script message %d is %d flits long; a message holds 1 to %d", i, in.Length, math.MaxInt32)
		}
	}
	return nil
}

// run describes the checked engine: the paper's run (progressive recovery
// included) on the scripted fabric, with one injection and one delivery port
// per node, no generated traffic, no injection limit, and statistics from
// cycle 0 on.
func (o *Options) run() spec.Run {
	r := spec.Default()
	r.K, r.N, r.VirtualChannels, r.BufferFlits, r.Ports = o.K, o.N, o.VCs, o.BufFlits, 1
	r.Mechanism, r.Threshold = spec.Mechanism(o.Mechanism), o.Threshold
	r.Lengths, r.Load, r.InjectionLimit = spec.Lengths{Fixed: 1}, 0, -1
	r.Warmup, r.Measure = 0, 1<<40
	return r
}

// Violation is one invariant failure, reproducible from its choice path.
type Violation struct {
	// Kind is "safety", "liveness" or "mark-economy".
	Kind string
	// Detail is a human-readable description of the failure.
	Detail string
	// Path holds the choice vector of every cycle from the initial state
	// to the violating state; the liveness continuation beyond it is the
	// deterministic default schedule (all choices 0).
	Path [][]uint8
	// Cycle is the engine cycle the violation was detected at.
	Cycle int64
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s violation at cycle %d after %d explored cycles: %s",
		v.Kind, v.Cycle, len(v.Path), v.Detail)
}

// Result summarizes one exhaustive check.
type Result struct {
	// Mechanism echoes the checked detector family.
	Mechanism string
	// States is the number of distinct canonical states visited.
	States int
	// Leaves is the number of single-cycle replays executed (explored
	// interleavings, counting revisits).
	Leaves int
	// Depth is the deepest cycle boundary reached.
	Depth int
	// Complete reports that the frontier was exhausted without hitting
	// MaxStates: every state reachable within MaxDepth was visited.
	Complete bool
	// DepthCapped reports that at least one frontier state sat at
	// MaxDepth and was checked but not expanded (the run verified the
	// space "to the depth bound" rather than to fixpoint).
	DepthCapped bool
	// DeadlockStates counts visited states whose oracle set was non-empty
	// (each received a liveness probe). Zero means the script never
	// deadlocks and the liveness check was vacuous.
	DeadlockStates int
	// TrueMarks is the total number of true-classified marks observed
	// across all liveness probes.
	TrueMarks int
	// Violation is the first (cycle-minimal) invariant failure, or nil.
	Violation *Violation
}
