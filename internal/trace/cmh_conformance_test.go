package trace_test

// Trace-driven conformance for the CMH edge-chasing detector: run it on
// randomized small tori driven into saturation, capture the full event
// stream, and replay it against the probe protocol's invariants:
//
//  (a) provenance — every detection mark is caused by a probe return for
//      that victim, in the same or an earlier cycle; there are no
//      spontaneous marks;
//  (b) wave discipline — every probe forward, drop or return belongs to an
//      initiator that emitted a probe in the same or an earlier cycle, and
//      drops carry a known reason code;
//  (c) verdict accounting — every true (oracle-confirmed) detection is
//      preceded by an oracle deadlock event, and every mark is either a
//      true positive or explicitly counted as a false positive;
//  (d) liveness — every deadlock the oracle confirms (except those forming
//      too close to the end of the run) is eventually followed by a true
//      detection;
//  (e) purity — CMH owns no I/DT or G/P flags, so none of NDM's or PDM's
//      flag kinds may appear in its trace.

import (
	"fmt"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/router"
	"wormnet/internal/trace"
)

func TestCMHTraceConformance(t *testing.T) {
	const initDelay = 8
	// CMH's detection latency tail is much longer than NDM's threshold
	// crossing: a probe wave must chase worm bodies link by link, losing
	// races for channels along the way (p99 observed in the hundreds of
	// cycles). The liveness exemption margin is sized accordingly.
	const measure, margin = 5000, 1500
	cases := []struct {
		k, n int
		seed uint64
	}{
		{3, 2, 1},
		{4, 2, 2},
		{4, 2, 7},
		{5, 2, 3},
	}
	sawDeadlock := false
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("k%d_n%d_seed%d", tc.k, tc.n, tc.seed), func(t *testing.T) {
			cfg := saturatedConfig(tc.k, tc.n, initDelay, tc.seed)
			cfg.Measure = measure
			cfg.Detector = func(f *router.Fabric) detect.Detector {
				return probe.New(f, probe.Config{InitDelay: initDelay, MaxHops: 64})
			}
			events := captureTrace(t, cfg)
			if len(events) == 0 {
				t.Fatal("empty trace")
			}
			checkProbeDiscipline(t, events)
			if checkCMHLiveness(t, events, margin) {
				sawDeadlock = true
			}
		})
	}
	if !sawDeadlock {
		t.Fatal("no configuration produced an oracle-confirmed deadlock; the liveness check never engaged")
	}
}

// checkProbeDiscipline replays the stream in order, enforcing assertions
// (a), (b), (c) and (e).
func checkProbeDiscipline(t *testing.T, events []trace.Event) {
	t.Helper()
	errs := 0
	fail := func(format string, args ...any) {
		if errs < 10 {
			t.Errorf(format, args...)
		}
		errs++
	}

	emitted := map[router.MsgID]bool{}  // initiators that launched a wave
	returned := map[router.MsgID]bool{} // victims with a probe return so far
	sawOracle := false
	var trueDetects, falseDetects, returns int

	for _, ev := range events {
		switch ev.Kind {
		case trace.KindISet, trace.KindIClear, trace.KindDTSet,
			trace.KindDTClear, trace.KindGSet, trace.KindPSet:
			fail("cycle %d: CMH emitted %s; it has no I/DT or G/P flags", ev.Cycle, ev.Kind)

		case trace.KindProbeEmit:
			emitted[ev.Msg] = true
			if ev.Arg != 1 {
				fail("cycle %d: seed probe of initiator %d emitted at %d hops, want 1", ev.Cycle, ev.Msg, ev.Arg)
			}

		case trace.KindProbeForward:
			if !emitted[ev.Msg] {
				fail("cycle %d: probe of initiator %d forwarded without a prior emit", ev.Cycle, ev.Msg)
			}
			if ev.Arg < 2 {
				fail("cycle %d: forwarded probe of initiator %d at %d hops; forwards start at 2", ev.Cycle, ev.Msg, ev.Arg)
			}

		case trace.KindProbeDrop:
			if !emitted[ev.Msg] {
				fail("cycle %d: probe of initiator %d dropped without a prior emit", ev.Cycle, ev.Msg)
			}
			switch ev.Arg {
			case trace.ProbeDropStale, trace.ProbeDropRoutable,
				trace.ProbeDropHops, trace.ProbeDropDeadEnd:
			default:
				fail("cycle %d: probe of initiator %d dropped with unknown reason %d", ev.Cycle, ev.Msg, ev.Arg)
			}

		case trace.KindProbeReturn:
			if !emitted[ev.Msg] {
				fail("cycle %d: probe of initiator %d returned without a prior emit", ev.Cycle, ev.Msg)
			}
			returned[router.MsgID(ev.Aux)] = true
			returns++

		case trace.KindOracleDeadlock:
			sawOracle = true

		case trace.KindDetect:
			if !returned[ev.Msg] {
				fail("cycle %d: msg %d marked without a probe return naming it as victim", ev.Cycle, ev.Msg)
			}
			switch ev.Arg {
			case 1:
				trueDetects++
				if !sawOracle {
					fail("cycle %d: detection of msg %d claims oracle confirmation before any oracle deadlock event", ev.Cycle, ev.Msg)
				}
			case 0:
				falseDetects++
			default:
				fail("cycle %d: detection of msg %d with unknown verdict %d", ev.Cycle, ev.Msg, ev.Arg)
			}
		}
	}
	if errs > 10 {
		t.Errorf("... and %d further probe-discipline violations", errs-10)
	}
	if returns > 0 && trueDetects+falseDetects == 0 {
		t.Errorf("%d probe returns produced no detections at all", returns)
	}
	t.Logf("probe returns %d, detections %d true + %d false", returns, trueDetects, falseDetects)
}

// checkCMHLiveness implements assertion (d): like the NDM check, but with
// an explicit exemption margin instead of one derived from t2. Reports
// whether any oracle-confirmed deadlock was seen.
func checkCMHLiveness(t *testing.T, events []trace.Event, margin int64) bool {
	t.Helper()
	last := events[len(events)-1].Cycle
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
			continue
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
