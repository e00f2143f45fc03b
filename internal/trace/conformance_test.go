package trace_test

// Trace-driven conformance tests: run NDM on randomized small tori driven
// into saturation, capture the full event stream, and replay it against the
// paper's Section 3 flag-transition rules and the omniscient oracle:
//
//  (a) liveness — every deadlock the oracle confirms is eventually followed
//      by a true (oracle-confirmed) detection event;
//  (b) G discipline — a G flag is only raised when rule 1's precondition
//      held in the preceding events: a first failed routing attempt whose
//      witness output channel was still active (I clear), or a Figure 5
//      promotion whose witness output's I flag was set and resetting;
//  (c) P discipline — every G -> P demotion carries a matching cause
//      earlier in the same cycle: a route success or VC release on that
//      input channel, or a first failed attempt that demoted it.
//
// The replay also enforces the transition-only contract: flag events must
// alternate set/clear, so the stream stays inside the legal I/DT x G/P
// lattice.

import (
	"bytes"
	"fmt"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/router"
	"wormnet/internal/sim"
	"wormnet/internal/spec"
	"wormnet/internal/trace"
)

// saturatedConfig drives a small k-ary n-cube torus well past saturation
// with single-VC fully adaptive routing, the most deadlock-prone regime the
// simulator supports.
func saturatedConfig(k, n int, t2 int64, seed uint64) sim.Config {
	r := spec.Default()
	r.K, r.N = k, n
	r.VirtualChannels = 1
	r.Load = 2.0
	r.InjectionLimit = -1
	r.Warmup = 0
	r.Measure = 2500
	r.OracleEvery = 1 // exact oracle stamps for the liveness check
	r.Seed = seed
	r.Threshold = t2
	cfg, err := r.SimConfig()
	if err != nil {
		panic(err)
	}
	return cfg
}

func captureTrace(t *testing.T, cfg sim.Config) []trace.Event {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(1)
	rec.SetSink(&buf)
	cfg.Trace = rec
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestNDMConformance(t *testing.T) {
	const t2 = 8
	cases := []struct {
		k, n int
		seed uint64
	}{
		{3, 2, 1},
		{4, 2, 2},
		{4, 2, 7},
		{5, 2, 3},
		{3, 3, 4},
	}
	sawDeadlock := false
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("k%d_n%d_seed%d", tc.k, tc.n, tc.seed), func(t *testing.T) {
			events := captureTrace(t, saturatedConfig(tc.k, tc.n, t2, tc.seed))
			if len(events) == 0 {
				t.Fatal("empty trace")
			}
			if checkLiveness(t, events, t2) {
				sawDeadlock = true
			}
			checkFlagDiscipline(t, events)
		})
	}
	if !sawDeadlock {
		t.Fatal("no configuration produced an oracle-confirmed deadlock; the liveness check never engaged")
	}
}

// checkLiveness implements assertion (a). Deadlocks forming too close to
// the end of the run are exempted: the detector needs on the order of t2
// cycles to cross its threshold. Reports whether any deadlock was seen.
func checkLiveness(t *testing.T, events []trace.Event, t2 int64) bool {
	t.Helper()
	last := events[len(events)-1].Cycle
	margin := 32 * t2
	// Cycles of true (oracle-confirmed) detections, in order.
	var trueDetects []int64
	for _, ev := range events {
		if ev.Kind == trace.KindDetect && ev.Arg == 1 {
			trueDetects = append(trueDetects, ev.Cycle)
		}
	}
	saw := false
	di := 0
	for _, ev := range events {
		if ev.Kind != trace.KindOracleDeadlock {
			continue
		}
		saw = true
		if ev.Cycle > last-margin {
			continue // formed too late to demand a detection before the run ended
		}
		for di < len(trueDetects) && trueDetects[di] < ev.Cycle {
			di++
		}
		if di == len(trueDetects) {
			t.Errorf("oracle confirmed a deadlock at cycle %d (msg %d) but no true detection ever followed (run ends at %d)",
				ev.Cycle, ev.Msg, last)
			return saw
		}
	}
	return saw
}

// cycleMemo holds the per-cycle context the discipline checks consult: the
// route outcomes and VC releases seen so far in the current cycle.
type cycleMemo struct {
	cycle      int64
	routeOK    map[router.LinkID]router.MsgID
	routeFail1 map[router.LinkID]router.MsgID // first attempts only
	vcFreed    map[router.LinkID]bool
}

func (m *cycleMemo) reset(cycle int64) {
	m.cycle = cycle
	m.routeOK = map[router.LinkID]router.MsgID{}
	m.routeFail1 = map[router.LinkID]router.MsgID{}
	m.vcFreed = map[router.LinkID]bool{}
}

// checkFlagDiscipline implements assertions (b) and (c) plus the
// transition-only lattice contract, by replaying the stream in order.
func checkFlagDiscipline(t *testing.T, events []trace.Event) {
	t.Helper()
	iState := map[router.LinkID]bool{}
	dtState := map[router.LinkID]bool{}
	gState := map[router.LinkID]bool{}
	var memo cycleMemo
	memo.reset(-1)

	errs := 0
	fail := func(format string, args ...any) {
		if errs < 10 {
			t.Errorf(format, args...)
		}
		errs++
	}

	for _, ev := range events {
		if ev.Cycle != memo.cycle {
			if ev.Cycle < memo.cycle {
				fail("event stream goes back in time: %d after %d", ev.Cycle, memo.cycle)
			}
			memo.reset(ev.Cycle)
		}
		switch ev.Kind {
		case trace.KindRouteOK:
			memo.routeOK[ev.Link] = ev.Msg
		case trace.KindRouteFail:
			if ev.Arg == 1 {
				memo.routeFail1[ev.Link] = ev.Msg
			}
		case trace.KindVCFree:
			memo.vcFreed[ev.Link] = true

		case trace.KindISet:
			if iState[ev.Link] {
				fail("cycle %d: I flag of link %d set while already set", ev.Cycle, ev.Link)
			}
			iState[ev.Link] = true
		case trace.KindIClear:
			if !iState[ev.Link] {
				fail("cycle %d: I flag of link %d cleared while already clear", ev.Cycle, ev.Link)
			}
			iState[ev.Link] = false
		case trace.KindDTSet:
			if dtState[ev.Link] {
				fail("cycle %d: DT flag of link %d set while already set", ev.Cycle, ev.Link)
			}
			dtState[ev.Link] = true
			if !iState[ev.Link] {
				// t1 <= t2: a counter past t2 is necessarily past t1.
				fail("cycle %d: DT set on link %d whose I flag is clear (t1 <= t2 violated)", ev.Cycle, ev.Link)
			}
		case trace.KindDTClear:
			if !dtState[ev.Link] {
				fail("cycle %d: DT flag of link %d cleared while already clear", ev.Cycle, ev.Link)
			}
			dtState[ev.Link] = false

		case trace.KindGSet:
			if gState[ev.Link] {
				fail("cycle %d: G raised on input %d already holding G", ev.Cycle, ev.Link)
			}
			gState[ev.Link] = true
			witness := router.LinkID(ev.Aux)
			switch ev.Arg {
			case trace.GRuleFirstAttempt:
				// Rule 1: the same cycle must already hold this message's
				// first failed attempt on this input, and the witness output
				// it was waiting on must still have been active.
				if m, ok := memo.routeFail1[ev.Link]; !ok || m != ev.Msg {
					fail("cycle %d: G(rule 1) on input %d for msg %d without a preceding first failed attempt this cycle",
						ev.Cycle, ev.Link, ev.Msg)
				}
				if ev.Aux < 0 {
					fail("cycle %d: G(rule 1) on input %d without a witness output", ev.Cycle, ev.Link)
				} else if iState[witness] {
					fail("cycle %d: G(rule 1) on input %d but witness output %d was inactive (I set)",
						ev.Cycle, ev.Link, witness)
				}
			case trace.GRulePromotion:
				// Figure 5: the witness output's I flag is being reset by a
				// transmission; at emission time it must still read set.
				if ev.Aux < 0 {
					fail("cycle %d: G(promotion) on input %d without a witness output", ev.Cycle, ev.Link)
				} else if !iState[witness] {
					fail("cycle %d: G(promotion) on input %d but witness output %d had no I flag to reset",
						ev.Cycle, ev.Link, witness)
				}
			default:
				fail("cycle %d: G raised on input %d with unknown rule %d", ev.Cycle, ev.Link, ev.Arg)
			}

		case trace.KindPSet:
			if !gState[ev.Link] {
				fail("cycle %d: P asserted on input %d already holding P", ev.Cycle, ev.Link)
			}
			gState[ev.Link] = false
			switch ev.Arg {
			case trace.PReasonRouteOK:
				if m, ok := memo.routeOK[ev.Link]; !ok || (ev.Msg != router.NilMsg && m != ev.Msg) {
					fail("cycle %d: G->P(route-ok) on input %d without a matching route success this cycle",
						ev.Cycle, ev.Link)
				}
			case trace.PReasonVCFreed:
				if !memo.vcFreed[ev.Link] {
					fail("cycle %d: G->P(vc-freed) on input %d without a VC release this cycle",
						ev.Cycle, ev.Link)
				}
			case trace.PReasonNotLastArrival, trace.PReasonAllInactive:
				if m, ok := memo.routeFail1[ev.Link]; !ok || m != ev.Msg {
					fail("cycle %d: G->P(first-attempt rule) on input %d without that first failed attempt",
						ev.Cycle, ev.Link)
				}
			default:
				fail("cycle %d: G->P on input %d with unknown reason %d", ev.Cycle, ev.Link, ev.Arg)
			}
		}
	}
	if errs > 10 {
		t.Errorf("... and %d further flag-discipline violations", errs-10)
	}
}

// TestPDMTraceConformance runs the same replay machinery over PDM: its
// single inactivity flag is reported as DT events and must obey the
// transition-only contract (no G/P events should appear at all).
func TestPDMTraceConformance(t *testing.T) {
	cfg := saturatedConfig(4, 2, 8, 5)
	cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 8) }
	events := captureTrace(t, cfg)

	dtState := map[router.LinkID]bool{}
	sawDT := false
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindGSet, trace.KindPSet, trace.KindISet, trace.KindIClear:
			t.Fatalf("cycle %d: PDM emitted %s; it has no I or G/P flags", ev.Cycle, ev.Kind)
		case trace.KindDTSet:
			sawDT = true
			if dtState[ev.Link] {
				t.Fatalf("cycle %d: PDM IF flag of link %d set while already set", ev.Cycle, ev.Link)
			}
			dtState[ev.Link] = true
		case trace.KindDTClear:
			if !dtState[ev.Link] {
				t.Fatalf("cycle %d: PDM IF flag of link %d cleared while already clear", ev.Cycle, ev.Link)
			}
			dtState[ev.Link] = false
		}
	}
	if !sawDT {
		t.Fatal("saturated PDM run produced no inactivity-flag events")
	}
}
