package mc

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"wormnet/internal/trace"
)

// face22 is the 4-message corner-turning cycle around the unit face of the
// 2x2 torus; face33 the same face on the 3x3. On the 2x2 both directions of
// each dimension are minimal (k=2), so every corner has a parallel escape
// channel and the cycle can never close; on the 3x3 the face links are the
// only minimal channels once the corner is turned, and the deadlock is
// reachable.
var (
	face22 = []Inject{{0, 3, 2}, {1, 2, 2}, {3, 0, 2}, {2, 1, 2}}
	face33 = []Inject{{0, 4, 2}, {1, 3, 2}, {4, 0, 2}, {3, 1, 2}}
)

// TestExhaustive2x2NoDeadlock proves the headline 2x2 result: with one
// virtual channel and the face-cycle script, no interleaving reaches a
// deadlock (k=2 parallel minimal channels always leave an escape), and every
// reachable state passes the structural safety checks and NDM's flag
// lattice.
func TestExhaustive2x2NoDeadlock(t *testing.T) {
	res, err := Check(Options{
		K: 2, N: 2, VCs: 1, Mechanism: "ndm",
		Script: face22, InjectWindow: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if !res.Complete || res.DepthCapped {
		t.Fatalf("expected exhaustive completion, got complete=%v capped=%v", res.Complete, res.DepthCapped)
	}
	if res.DeadlockStates != 0 {
		t.Fatalf("2x2 face cycle reached %d deadlocked states; the parallel-channel argument is wrong", res.DeadlockStates)
	}
	if res.States < 1000 {
		t.Fatalf("suspiciously small state space: %d states", res.States)
	}
}

// TestExhaustive3x3Deadlocks checks the two paper invariants on a fabric
// where deadlock is actually reachable: every mechanism must drain every
// reachable deadlock within the horizon with at least one true mark.
func TestExhaustive3x3Deadlocks(t *testing.T) {
	for _, mech := range []string{"ndm", "pdm", "cmh"} {
		t.Run(mech, func(t *testing.T) {
			res, err := Check(Options{
				K: 3, N: 2, VCs: 1, Mechanism: mech,
				Script: face33, InjectWindow: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation: %v", res.Violation)
			}
			if !res.Complete {
				t.Fatal("expected exhaustive completion")
			}
			if res.DeadlockStates == 0 {
				t.Fatal("liveness check was vacuous: no deadlocked states reached")
			}
			if res.TrueMarks == 0 {
				t.Fatal("deadlocks drained without any true mark recorded")
			}
		})
	}
}

// TestStrictRejectsSimultaneousMarks documents the engine finding that
// strict one-victim-per-cycle does NOT hold: a symmetric 4-message deadlock
// puts every member over threshold in the same cycle, and all mechanisms
// mark all four before recovery drains the set (DESIGN.md §13).
func TestStrictRejectsSimultaneousMarks(t *testing.T) {
	res, err := Check(Options{
		K: 3, N: 2, VCs: 1, Mechanism: "ndm",
		Script: face33, InjectWindow: 0, Strict: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != "mark-economy" {
		t.Fatalf("expected a strict mark-economy violation, got %v", res.Violation)
	}
}

// TestLivenessCounterexample turns detection off, demands the checker find
// the resulting liveness violation, minimizes it, and replays it into a
// parseable trace stream that shows the oracle observing a deadlock no
// detector ever marks.
func TestLivenessCounterexample(t *testing.T) {
	o := Options{
		K: 3, N: 2, VCs: 1, Mechanism: "none",
		Script: face33, InjectWindow: 0,
	}
	res, err := Check(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != "liveness" {
		t.Fatalf("expected a liveness violation with detection off, got %v", res.Violation)
	}
	minv, err := Minimize(o, res.Violation)
	if err != nil {
		t.Fatal(err)
	}
	if minv.Kind != "liveness" {
		t.Fatalf("minimization changed the violation kind to %q", minv.Kind)
	}
	if len(minv.Path) > len(res.Violation.Path) {
		t.Fatalf("minimization grew the path: %d > %d", len(minv.Path), len(res.Violation.Path))
	}
	// The minimized path must still reproduce.
	rep, err := verifyPath(o, minv.Path)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Kind != "liveness" {
		t.Fatalf("minimized path does not reproduce: %v", rep)
	}
	var buf bytes.Buffer
	if err := WriteTrace(o, minv.Path, &buf); err != nil {
		t.Fatal(err)
	}
	sawOracle, sawDetect := false, false
	if err := trace.Scan(&buf, func(ev trace.Event) error {
		switch ev.Kind {
		case trace.KindOracleDeadlock:
			sawOracle = true
		case trace.KindDetect:
			sawDetect = true
		}
		return nil
	}); err != nil {
		t.Fatalf("counterexample trace does not parse: %v", err)
	}
	if !sawOracle {
		t.Fatal("counterexample trace has no oracle-deadlock event")
	}
	if sawDetect {
		t.Fatal("detection is off, yet the trace has a detect event")
	}
}

// TestCommittedCounterexample is the regression seed: the minimized
// liveness counterexample found by the checker with detection disabled,
// committed as a trace stream (testdata/liveness-cex-3x3-none.jsonl,
// regenerate with `make conformance-cex`). It must stay parseable and keep
// its failure shape — a true deadlock the oracle observes and no detector
// ever marks.
func TestCommittedCounterexample(t *testing.T) {
	f, err := os.Open("testdata/liveness-cex-3x3-none.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oracle, detect, failTail := 0, 0, int64(-1)
	if err := trace.Scan(f, func(ev trace.Event) error {
		switch ev.Kind {
		case trace.KindOracleDeadlock:
			oracle++
		case trace.KindDetect:
			detect++
		case trace.KindRouteFail:
			failTail = ev.Cycle
		}
		return nil
	}); err != nil {
		t.Fatalf("committed counterexample does not parse: %v", err)
	}
	if oracle == 0 {
		t.Fatal("committed counterexample lost its oracle-deadlock events")
	}
	if detect != 0 {
		t.Fatalf("committed counterexample has %d detect events; it documents a run with detection off", detect)
	}
	if failTail < 64 {
		t.Fatalf("committed counterexample's routing failures end at cycle %d; expected a long undetected stall", failTail)
	}
}

// TestReplayDeterminism is the seam's load-bearing property: the same choice
// path always reproduces the same canonical state. Without it the visited
// set would prune live states and the whole check would be unsound.
func TestReplayDeterminism(t *testing.T) {
	o := Options{
		K: 3, N: 2, VCs: 1, Mechanism: "cmh",
		Script: face33, InjectWindow: 1,
	}
	if err := o.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	path := [][]uint8{{1}, {0, 1}, nil, {1, 1}, nil, nil, {2}}
	var encs [2][]byte
	for i := range encs {
		r, err := o.replay(path)
		if err != nil {
			t.Fatal(err)
		}
		encs[i] = r.encode(nil)
	}
	if !bytes.Equal(encs[0], encs[1]) {
		t.Fatal("same choice path produced different canonical encodings")
	}
}

// TestMechanismResolution pins the detector each accepted mechanism name
// checks (built through sim.Mechanism at the configured threshold), and that
// a mechanism without a state encoding is refused rather than pruned on a
// state that omits it.
func TestMechanismResolution(t *testing.T) {
	for mech, want := range map[string]string{
		"ndm":  "ndm(t2=4)",
		"pdm":  "pdm(th=4)",
		"cmh":  "cmh(init=4,hops=64,steal-idle,local)",
		"none": "none",
	} {
		o := Options{K: 2, N: 2, Mechanism: mech, Script: face22}
		if err := o.applyDefaults(); err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		r, err := o.newRunner(nil)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if got := r.eng.Detector().Name(); got != want {
			t.Errorf("%s checks %q, want %q", mech, got, want)
		}
	}
	if _, err := Check(Options{K: 2, N: 2, Mechanism: "nope", Script: face22}); err == nil {
		t.Error("unknown mechanism accepted")
	}
	_, err := Check(Options{K: 2, N: 2, Mechanism: "hdr-block", Script: face22})
	if err == nil || !strings.Contains(err.Error(), "state encoding") {
		t.Errorf("timeout mechanism: err = %v, want a refusal naming the missing state encoding", err)
	}
}

// TestSeedCollection checks the fuzz-corpus sampling contract: requesting
// seeds yields at least one non-empty encoding, at most the requested count.
func TestSeedCollection(t *testing.T) {
	res, err := Check(Options{
		K: 2, N: 2, VCs: 1, Mechanism: "pdm",
		Script: face22, InjectWindow: 0, CollectSeeds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) == 0 || len(res.Seeds) > 8 {
		t.Fatalf("collected %d seeds, want 1..8", len(res.Seeds))
	}
	for i, s := range res.Seeds {
		if len(s) == 0 {
			t.Fatalf("seed %d is empty", i)
		}
	}
}
