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
	"fmt"
	"io"

	"wormnet/internal/recovery"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
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
	// the checker needs one that reports a state encoding ("ndm", "pdm",
	// "cmh") or "none" (no detection — every deadlock is a liveness
	// violation; used to generate regression counterexamples).
	Mechanism string
	// Threshold is the mechanism's detection threshold: NDM's t2, PDM's
	// inactivity threshold, CMH's probe initiation delay. Zero selects 4.
	Threshold int64
	// Recovery selects the recovery discipline (default progressive).
	Recovery recovery.Style
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
	// CollectSeeds, when positive, samples up to that many frontier-state
	// encodings into Result.Seeds (fuzz corpus seeding).
	CollectSeeds int
	// Log, when non-nil, receives one-line progress reports.
	Log io.Writer
}

func (o *Options) applyDefaults() error {
	if err := topology.Validate(o.K, o.N); err != nil {
		return fmt.Errorf("mc: %w", err)
	}
	if o.VCs == 0 {
		o.VCs = 1
	}
	if o.BufFlits == 0 {
		o.BufFlits = 2
	}
	if o.Threshold == 0 {
		o.Threshold = 4
	}
	if o.Horizon == 0 {
		o.Horizon = int(8*o.Threshold) + 16*o.K*o.N + 64
	}
	if o.MaxStates == 0 {
		o.MaxStates = 2_000_000
	}
	if len(o.Script) == 0 {
		return fmt.Errorf("mc: empty injection script")
	}
	if err := o.checkEncodable(); err != nil {
		return err
	}
	_, err := o.mechanism().Factory()
	return err
}

// Widths of the canonical state encoding (encode.go, sim.AppendSchedState,
// the detectors' AppendState) and of the choice vectors: counts, node numbers,
// flit counts, budgets and arities take one byte, identifiers and clamped
// ages two, with 0xffff standing for -1.
const (
	maxByte = 1<<8 - 1
	maxID   = 1<<16 - 2
)

// checkEncodable rejects a fabric or script the fixed-width encodings cannot
// hold. Past these bounds two different states would share one encoding and
// the visited set would silently prune the second, so the checker refuses
// to start instead.
func (o *Options) checkEncodable() error {
	nodes := 1
	for i := 0; i < o.N && nodes <= maxByte; i++ {
		nodes *= o.K
	}
	// One injection and one delivery port per node (newRunner).
	links := nodes * (2*o.N + 2)
	vcs := nodes * (2*o.N*o.VCs + 2)
	switch {
	case nodes > maxByte:
		return fmt.Errorf("mc: the %d-ary %d-cube has more than %d nodes, the most the state encoding can number", o.K, o.N, maxByte)
	case len(o.Script) > maxByte:
		return fmt.Errorf("mc: script of %d messages; the state encoding counts at most %d", len(o.Script), maxByte)
	case o.BufFlits < 0 || o.BufFlits > maxByte:
		return fmt.Errorf("mc: BufFlits %d outside [1, %d], the flit counts the state encoding holds", o.BufFlits, maxByte)
	case o.InjectWindow < 0 || o.InjectWindow > maxByte:
		return fmt.Errorf("mc: InjectWindow %d outside [0, %d], the deferral budgets the state encoding holds", o.InjectWindow, maxByte)
	case o.VCs < 0 || vcs > maxID || links > maxID:
		return fmt.Errorf("mc: fabric of %d links and %d virtual channels; the state encoding numbers at most %d of each", links, vcs, maxID)
	case 2*o.N*o.VCs+1 > maxByte:
		return fmt.Errorf("mc: a router with %d input virtual channels can offer a decision more than %d wide", 2*o.N*o.VCs+1, maxByte)
	case o.Threshold < 0 || 4*o.Threshold > maxID:
		return fmt.Errorf("mc: Threshold %d outside [1, %d], the clamped ages the state encoding holds", o.Threshold, maxID/4)
	}
	for i, in := range o.Script {
		if in.Src < 0 || in.Src >= nodes || in.Dst < 0 || in.Dst >= nodes {
			return fmt.Errorf("mc: script message %d goes %d -> %d on a %d-node fabric", i, in.Src, in.Dst, nodes)
		}
		if in.Length < 1 || in.Length > maxByte {
			return fmt.Errorf("mc: script message %d is %d flits long; the state encoding holds 1 to %d", i, in.Length, maxByte)
		}
	}
	return nil
}

// mechanism describes the detector under check.
func (o *Options) mechanism() sim.Mechanism {
	return sim.Mechanism{Name: o.Mechanism, Threshold: o.Threshold}
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
	// Seeds holds sampled frontier-state encodings when CollectSeeds > 0.
	Seeds [][]byte
}
