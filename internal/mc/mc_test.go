package mc

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"wormnet/internal/sim"
	"wormnet/internal/trace"
)

// replay builds a fresh runner and replays the given per-cycle choice
// vectors from the initial state: the definition of "the state a path
// reaches". Check gets there by snapshot and restore instead, and the
// differential test below holds it to this.
func (o *Options) replay(path [][]uint8) (*runner, error) {
	r, err := o.newRunner(nil)
	if err != nil {
		return nil, err
	}
	return r, r.stepPath(path)
}

// face22 is the 4-message corner-turning cycle around the unit face of the
// 2x2 torus; face33 the same face on the 3x3. On the 2x2 both directions of
// each dimension are minimal (k=2), so every corner has a parallel escape
// channel and the cycle can never close; on the 3x3 the face links are the
// only minimal channels once the corner is turned, and the deadlock is
// reachable.
var (
	face22 = []Inject{{0, 3, 2}, {1, 2, 2}, {3, 0, 2}, {2, 1, 2}}
	face33 = []Inject{{0, 4, 2}, {1, 3, 2}, {4, 0, 2}, {3, 1, 2}}
	// dblface22 sends every face22 message twice, filling both parallel
	// channels of the k=2 fabric (mcheck -script dblface).
	dblface22 = []Inject{{0, 3, 2}, {0, 3, 2}, {1, 2, 2}, {1, 2, 2}, {3, 0, 2}, {3, 0, 2}, {2, 1, 2}, {2, 1, 2}}
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
// a crude timeout, which decides from the absolute stamps the canonical state
// leaves out, is refused rather than pruned on a state that omits them.
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
	if err == nil || !strings.Contains(err.Error(), "time stamps the canonical state leaves out") {
		t.Errorf("timeout mechanism: err = %v, want a refusal naming the stamps the canonical state leaves out", err)
	}
}

// checkByReplay is the differential reference: the expansion mc.Check used
// before the engine could be snapshotted, and before the frontier was expanded
// on several workers. One loop dequeues each frontier path in turn; every
// leaf builds a fresh engine and replays its parent's whole choice path from
// cycle 0 (Options.replay) — no snapshot, no restore, no engine reused —
// which makes it the definition of the explored space. It returns the
// visited set with the result.
func checkByReplay(t *testing.T, o Options) (*Result, map[key]struct{}) {
	t.Helper()
	if err := o.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	res := &Result{Mechanism: o.Mechanism}
	visited := make(map[key]struct{})
	root, err := o.replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	visited[hashState(root.encode(nil))] = struct{}{}
	res.States = 1
	queue := [][][]uint8{nil}
	capped := false
	extend := func(path [][]uint8, vec []uint8) [][]uint8 {
		return append(slices.Clip(path), vec)
	}
	for head := 0; head < len(queue); head++ {
		path := queue[head]
		depth := len(path)
		res.Depth = max(res.Depth, depth)
		if o.MaxDepth > 0 && depth >= o.MaxDepth {
			res.DepthCapped = true
			continue
		}
		if len(visited) >= o.MaxStates {
			capped = true
			break
		}
		var trial []uint8
		for {
			r, err := o.replay(path)
			if err != nil {
				t.Fatal(err)
			}
			eff, arity, err := r.step(trial)
			res.Leaves++
			if err != nil {
				res.Violation = &Violation{Kind: "safety", Detail: err.Error(),
					Path: extend(path, slices.Clone(trial)), Cycle: r.eng.Now()}
				return res, visited
			}
			k := hashState(r.encode(nil))
			if _, seen := visited[k]; !seen {
				visited[k] = struct{}{}
				res.States++
				childPath := extend(path, eff)
				p := r.livenessProbe()
				if p.deadlocked {
					res.DeadlockStates++
					res.TrueMarks += p.trueMarks
				}
				if v := p.violation; v != nil {
					v.Path = childPath
					res.Violation = v
					return res, visited
				}
				queue = append(queue, childPath)
			}
			if trial = nextTrial(eff, arity); trial == nil {
				break
			}
		}
	}
	res.Complete = !capped
	return res, visited
}

// exploreWorkers are the worker counts the differential tests run explore
// with. They are passed explicitly, so that a race-detector run exercises the
// concurrent merge even on a one-CPU host.
var exploreWorkers = []int{1, 2, 3}

// TestCheckMatchesReplayReference holds the parallel restore-based expansion
// to the replay reference, on one, two and three workers: equal results
// (every field) and the same set of visited state keys. The spaces: the 2x2
// face cycle with a deferral window; the double-face script capped at 20,000
// states and at 20,001, a cap that lands inside a batch; the 3x3 face cycle
// with windows 0 and 1 to fixpoint, and with window 2 to depth 6. Every
// mechanism, unless -short.
func TestCheckMatchesReplayReference(t *testing.T) {
	spaces := []struct {
		name string
		o    Options
	}{
		{"2x2-face-w1", Options{K: 2, N: 2, Script: face22, InjectWindow: 1}},
		{"2x2-dblface-20k", Options{K: 2, N: 2, Script: dblface22, MaxStates: 20000}},
		{"2x2-dblface-20001", Options{K: 2, N: 2, Script: dblface22, MaxStates: 20001}},
		{"3x3-face-w0", Options{K: 3, N: 2, Script: face33}},
		{"3x3-face-w1", Options{K: 3, N: 2, Script: face33, InjectWindow: 1}},
		{"3x3-face-w2-depth6", Options{K: 3, N: 2, Script: face33, InjectWindow: 2, MaxDepth: 6}},
	}
	for _, sp := range spaces {
		for _, mech := range []string{"ndm", "pdm", "cmh"} {
			if testing.Short() && (mech != "ndm" || sp.o.MaxStates != 0) {
				continue
			}
			t.Run(sp.name+"/"+mech, func(t *testing.T) {
				o := sp.o
				o.Mechanism = mech
				want, wantVisited := checkByReplay(t, o)
				if want.States < 100 {
					t.Errorf("reference explored only %d states", want.States)
				}
				if o.MaxDepth > 0 && !want.DepthCapped {
					t.Errorf("reference never reached depth %d", o.MaxDepth)
				}
				for _, w := range exploreWorkers {
					got, gotVisited, err := explore(o, w)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d workers: results differ\n got %+v\nwant %+v", w, got, want)
					}
					if !maps.Equal(gotVisited, wantVisited) {
						t.Errorf("%d workers: visited sets differ: %d keys, reference %d", w, len(gotVisited), len(wantVisited))
					}
				}
			})
		}
	}
}

// TestSeededViolationMatchesReference turns detection off, so that the first
// deadlock is a liveness violation: on every worker count the expansion must
// stop at the reference's choice path with the reference's result and
// visited set, and the minimized path's trace must be the committed
// counterexample, byte for byte.
func TestSeededViolationMatchesReference(t *testing.T) {
	o := Options{K: 3, N: 2, VCs: 1, Mechanism: "none", Script: face33}
	want, wantVisited := checkByReplay(t, o)
	if want.Violation == nil {
		t.Fatal("the reference found no violation with detection off")
	}
	committed, err := os.ReadFile("testdata/liveness-cex-3x3-none.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range exploreWorkers {
		got, gotVisited, err := explore(o, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: results differ\n got %+v (%v)\nwant %+v (%v)", w, got, got.Violation, want, want.Violation)
		}
		if !maps.Equal(gotVisited, wantVisited) {
			t.Errorf("%d workers: visited sets differ: %d keys, reference %d", w, len(gotVisited), len(wantVisited))
		}
		if got.Violation == nil {
			continue
		}
		minv, err := Minimize(o, got.Violation)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(o, minv.Path, &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), committed) {
			t.Errorf("%d workers: counterexample trace (%d bytes) differs from the committed one (%d bytes)", w, buf.Len(), len(committed))
		}
	}
}

// TestExploreLeavesNoGoroutines: every way a check ends — the frontier
// exhausted, the MaxStates cap, a violation, a depth cap — stops and waits
// for its workers, so the goroutine count returns to where it started.
// Checked on three workers, whatever GOMAXPROCS is.
func TestExploreLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		ok   func(*Result) bool
	}{
		{"complete", Options{K: 2, N: 2, Mechanism: "ndm", Script: face22},
			func(r *Result) bool { return r.Complete && r.Violation == nil }},
		{"max-states", Options{K: 2, N: 2, Mechanism: "ndm", Script: dblface22, MaxStates: 5000},
			func(r *Result) bool { return !r.Complete && r.Violation == nil }},
		{"violation", Options{K: 3, N: 2, Mechanism: "none", Script: face33},
			func(r *Result) bool { return r.Violation != nil }},
		{"depth-cap", Options{K: 3, N: 2, Mechanism: "ndm", Script: face33, InjectWindow: 2, MaxDepth: 6},
			func(r *Result) bool { return r.Complete && r.DepthCapped && r.Violation == nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			res, _, err := explore(tc.o, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.ok(res) {
				t.Fatalf("unexpected result %+v (violation %v)", res, res.Violation)
			}
			// The workers have signalled their exit; the runtime may take a
			// moment to retire them. (Workers of an earlier check may still
			// be retiring when before is read, so fewer is fine.)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the check, %d after", before, after)
			}
		})
	}
}

// TestRootOnlyCheckTakesNoSnapshot pins that the root snapshot is taken at
// the first expansion: a Check that stops at its root state (the benchmark's
// setup_s probe, any depth-0 run) must not pay for one. Counted in
// allocations, relative to building a runner with and without a snapshot.
func TestRootOnlyCheckTakesNoSnapshot(t *testing.T) {
	o := Options{K: 2, N: 2, Mechanism: "ndm", Script: face22, MaxStates: 1}
	check := testing.AllocsPerRun(20, func() {
		if res, err := Check(o); err != nil || res.States != 1 {
			t.Fatalf("root-only check: %v, %+v", err, res)
		}
	})
	if err := o.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	build := func(snapshot bool) float64 {
		return testing.AllocsPerRun(20, func() {
			r, err := o.newRunner(nil)
			if err != nil {
				t.Fatal(err)
			}
			r.encode(nil)
			if snapshot {
				r.snapshot(nil)
			}
		})
	}
	without, with := build(false), build(true)
	if with-without < 4 {
		t.Fatalf("a snapshot costs %v allocations: the comparison below proves nothing", with-without)
	}
	if check > without+(with-without)/2 {
		t.Errorf("a root-only Check allocates %v times; a runner and its encoding take %v, with a snapshot %v", check, without, with)
	}
}

// TestUnencodableFabricsRefused: a router wide enough to offer a decision the
// one-byte choice vectors cannot record, a negative deferral window and a
// script message that does not fit the fabric are refused up front, each
// naming what does not fit. The canonical state has no field width, so
// fabrics, scripts, buffers, windows and thresholds past the old one- and
// two-byte fields are accepted.
func TestUnencodableFabricsRefused(t *testing.T) {
	long := make([]Inject, 256)
	for i := range long {
		long[i] = Inject{0, 3, 2}
	}
	cases := []struct {
		name string
		o    Options
		want string // "" = accepted
	}{
		{"15x15 torus", Options{K: 15, N: 2, Script: face22}, ""},
		{"16x16 torus", Options{K: 16, N: 2, Script: face22}, ""},
		{"2-ary 9-cube", Options{K: 2, N: 9, Script: face22}, ""},
		{"256-message script", Options{K: 2, N: 2, Script: long}, ""},
		{"256-flit message", Options{K: 2, N: 2, Script: []Inject{{0, 3, 256}}}, ""},
		{"empty message", Options{K: 2, N: 2, Script: []Inject{{0, 3, 0}}}, "0 flits long"},
		{"message to nowhere", Options{K: 2, N: 2, Script: []Inject{{0, 4, 2}}}, "0 -> 4"},
		{"256-flit buffers", Options{K: 2, N: 2, BufFlits: 256, Script: face22}, ""},
		{"window 256", Options{K: 2, N: 2, InjectWindow: 256, Script: face22}, ""},
		{"window -1", Options{K: 2, N: 2, InjectWindow: -1, Script: face22}, "InjectWindow -1"},
		{"63 VCs", Options{K: 3, N: 2, VCs: 63, Script: face33}, ""},
		{"64 VCs: arbitration 257 wide", Options{K: 3, N: 2, VCs: 64, Script: face33}, "257 input virtual channels"},
		{"65,534 VCs or more", Options{K: 17, N: 2, VCs: 63, Script: face22}, ""},
		{"threshold 16384", Options{K: 2, N: 2, Threshold: 16384, Script: face22}, ""},
	}
	for _, tc := range cases {
		o := tc.o
		o.Mechanism = "ndm"
		err := o.applyDefaults()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestPaperFabricRuns: the checker starts on the paper's 8-ary 3-cube, 512
// nodes, and explores the first thousand states of the face script, with a
// deferral window of 2, without error. It makes no claim about the state
// space.
func TestPaperFabricRuns(t *testing.T) {
	face := []Inject{{0, 9, 2}, {1, 8, 2}, {9, 0, 2}, {8, 1, 2}}
	for _, mech := range []string{"ndm", "pdm", "cmh"} {
		res, err := Check(Options{K: 8, N: 3, Mechanism: mech, Script: face, InjectWindow: 2, MaxStates: 1000})
		if err != nil || res.Violation != nil || res.States < 1000 {
			t.Errorf("%s on the 8-ary 3-cube: %v, %+v", mech, err, res)
		}
	}
}

// TestNegativeBoundsRefused: a negative Horizon, MaxDepth or MaxStates is
// refused, not taken as a bound (a false liveness violation, a truncation
// after the root state, "complete to depth -2"); zero keeps its default.
func TestNegativeBoundsRefused(t *testing.T) {
	for name, set := range map[string]func(*Options){
		"Horizon -5":   func(o *Options) { o.Horizon = -5 },
		"MaxDepth -2":  func(o *Options) { o.MaxDepth = -2 },
		"MaxStates -5": func(o *Options) { o.MaxStates = -5 },
	} {
		o := Options{K: 3, N: 2, Mechanism: "ndm", Script: face33}
		set(&o)
		if res, err := Check(o); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Check = %+v, %v; want an error naming %s", name, res, err, name)
		}
	}
	o := Options{K: 3, N: 2, Mechanism: "ndm", Script: face33}
	if err := o.applyDefaults(); err != nil || o.Horizon <= 0 || o.MaxDepth != 0 || o.MaxStates != 2_000_000 {
		t.Errorf("zero bounds: %v, Horizon %d, MaxDepth %d, MaxStates %d", err, o.Horizon, o.MaxDepth, o.MaxStates)
	}
}

// TestChooserRefusesWideArity: a choice and its arity are recorded in one
// byte each, so a decision point wider than 255 is refused rather than
// recorded modulo 256.
func TestChooserRefusesWideArity(t *testing.T) {
	for _, tc := range []struct {
		n       int
		refused bool
	}{{2, false}, {255, false}, {256, true}, {257, true}, {1 << 16, true}} {
		c := &chooser{path: []uint8{1}}
		var got int
		refused := func() (refused bool) {
			defer func() { refused = recover() != nil }()
			got = c.Choose(sim.ChooseArb, tc.n)
			return false
		}()
		if refused != tc.refused {
			t.Errorf("Choose with %d options: refused %v, want %v", tc.n, refused, tc.refused)
		}
		if !refused && (got != 1 || len(c.arity) != 1 || int(c.arity[0]) != tc.n) {
			t.Errorf("Choose with %d options: chose %d, recorded arities %v", tc.n, got, c.arity)
		}
	}
}

// TestProgressLine checks what Options.Log receives: the totals, then the
// rates since the previous line and the frontier length.
func TestProgressLine(t *testing.T) {
	var log bytes.Buffer
	res, err := Check(Options{K: 2, N: 2, Mechanism: "ndm", Script: face22, InjectWindow: 2, MaxStates: 100001, Log: &log})
	if err != nil || res.Violation != nil {
		t.Fatal(err, res.Violation)
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d progress lines for %d states, want one per 50,000:\n%s", len(lines), res.States, log.String())
	}
	var states, leaves, depth, deadlocked, frontier int
	var rate, dedup float64
	if _, err := fmt.Sscanf(lines[1], "mc: ndm: %d states, %d leaves, depth %d, %d deadlocked, %f states/s, dedup %f%%, frontier %d",
		&states, &leaves, &depth, &deadlocked, &rate, &dedup, &frontier); err != nil {
		t.Fatalf("progress line %q: %v", lines[1], err)
	}
	if states != 100000 || leaves < states || rate <= 0 || dedup <= 0 || dedup >= 100 || frontier <= 0 {
		t.Errorf("progress line %q: implausible values", lines[1])
	}
}

// BenchmarkCheckDblface is the repo benchmark's mcheck_dblface pass: NDM on
// the 2x2 torus, the double-face script, the first 100,000 states, on
// GOMAXPROCS workers. It reports states per second; `make profile` profiles
// it.
func BenchmarkCheckDblface(b *testing.B) {
	o := Options{K: 2, N: 2, Mechanism: "ndm", Script: dblface22, MaxStates: 100000}
	states := 0
	for i := 0; i < b.N; i++ {
		res, err := Check(o)
		if err != nil || res.Violation != nil || res.States < o.MaxStates {
			b.Fatalf("check: %v, %+v", err, res)
		}
		states += res.States
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}
