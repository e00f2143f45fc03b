// The trace view renders flight-recorder event streams.
//
// Summary (-summary): per-kind event counts, cycle span, and the detection
// verdicts present in the trace.
//
//	wormview trace -summary events.jsonl
//
// Message timeline (the default): the summary, then a per-cycle timeline of
// one message's life — its injection, routing attempts, the G/P transitions
// of the input channels it blocked on, the I/DT flag activity of the
// channels it requested, and its detection/recovery, exactly the sequence
// the paper's Section 3 rules produce. With -msg -1 (the default) the first
// detected message is chosen; if nothing was detected, the first injected
// one.
//
//	wormview trace -msg 17 events.jsonl
//
// Both views accept -kind, a comma-separated list of event-kind names
// (as printed in the summary, e.g. probe-emit,probe-return), restricting
// the output to just those kinds. Unknown names are rejected with the
// list of legal values.
//
//	wormview trace -kind detect,probe-return events.jsonl
//
// Traces are streamed a line at a time, never loaded whole, so traces far
// larger than memory are fine. The timeline view makes multiple passes over
// its input; stdin is spooled to a temporary file to allow that.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wormnet/internal/router"
	"wormnet/internal/trace"
)

func traceView(fs *flag.FlagSet) func(*input) error {
	var (
		msg     = fs.Int("msg", -1, "render a per-cycle timeline of this message id (-1 = first detected, else first injected)")
		summary = fs.Bool("summary", false, "print only the per-kind summary (the default when -msg is not set)")
		kinds   = fs.String("kind", "", "comma-separated event kinds to keep (e.g. detect,probe-return); empty keeps all")
	)
	return func(in *input) error {
		timeline := !*summary || *msg >= 0
		keep, err := parseKinds(*kinds)
		if err != nil {
			return err
		}
		if timeline {
			// The timeline needs several passes; stdin only offers one.
			if err := in.rewindable(); err != nil {
				return err
			}
		}
		sum, err := scanSummary(in.f, keep)
		if err != nil {
			return err
		}
		if sum.total == 0 {
			if keep != nil {
				return errors.New("no events of the requested kind(s)")
			}
			return errors.New("empty trace")
		}
		sum.print(in.name)
		if !timeline {
			return nil
		}

		id := router.MsgID(*msg)
		if *msg < 0 {
			id = sum.pickMessage()
			if id == router.NilMsg {
				return nil // trace has no message events at all
			}
		}
		fmt.Println()
		return printMsgTimeline(in.f, id, keep)
	}
}

// parseKinds turns the -kind argument into a filter set. A nil map means
// no filtering. Unknown names are an error naming the legal values.
func parseKinds(s string) (map[trace.Kind]bool, error) {
	if s == "" {
		return nil, nil
	}
	keep := make(map[trace.Kind]bool)
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			return nil, fmt.Errorf("empty kind name in -kind %q", s)
		}
		k, ok := trace.KindByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown event kind %q (available: %s)",
				name, strings.Join(trace.KindNames(), ", "))
		}
		keep[k] = true
	}
	return keep, nil
}

// summaryStats accumulates the single-pass summary of a trace.
type summaryStats struct {
	counts               [64]int
	total                int
	first, last          int64
	detects, trueDetects int
	firstDetected        router.MsgID
	firstMsg             router.MsgID
}

// scanSummary makes one streaming pass collecting per-kind counts, the cycle
// span, detection verdicts, and the default message for the timeline view.
// A non-nil keep set restricts the summary to just those kinds.
func scanSummary(rd io.Reader, keep map[trace.Kind]bool) (*summaryStats, error) {
	s := &summaryStats{firstDetected: router.NilMsg, firstMsg: router.NilMsg}
	err := trace.Scan(rd, func(ev trace.Event) error {
		if keep != nil && !keep[ev.Kind] {
			return nil
		}
		if s.total == 0 {
			s.first, s.last = ev.Cycle, ev.Cycle
		}
		s.total++
		if int(ev.Kind) < len(s.counts) {
			s.counts[ev.Kind]++
		}
		if ev.Cycle < s.first {
			s.first = ev.Cycle
		}
		if ev.Cycle > s.last {
			s.last = ev.Cycle
		}
		if ev.Kind == trace.KindDetect {
			s.detects++
			if ev.Arg == 1 {
				s.trueDetects++
			}
			if s.firstDetected == router.NilMsg {
				s.firstDetected = ev.Msg
			}
		}
		if s.firstMsg == router.NilMsg && ev.Msg != router.NilMsg {
			s.firstMsg = ev.Msg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// print reports what the trace contains.
func (s *summaryStats) print(name string) {
	fmt.Printf("%s: %d events over cycles %d..%d\n", name, s.total, s.first, s.last)
	for k, c := range s.counts {
		if c > 0 {
			fmt.Printf("  %-16s %d\n", trace.Kind(k).String(), c)
		}
	}
	if s.detects > 0 {
		fmt.Printf("detections: %d (%d confirmed true by the oracle)\n", s.detects, s.trueDetects)
	}
}

// pickMessage selects the message to render: the first detected one, or the
// first one carrying a message id.
func (s *summaryStats) pickMessage() router.MsgID {
	if s.firstDetected != router.NilMsg {
		return s.firstDetected
	}
	return s.firstMsg
}

// printMsgTimeline renders every event involving message id, plus the flag
// activity of the channels the message touched, cycle by cycle. Two more
// streaming passes: one to learn which channels the message used, one to
// print. A non-nil keep set restricts the printed events to those kinds
// (the channel-discovery pass still sees everything, so filtering never
// changes which channels count as the message's own).
func printMsgTimeline(f *os.File, id router.MsgID, keep map[trace.Kind]bool) error {
	// Channels the message touched (as input or requested output), so flag
	// events on them are part of its story.
	links := map[router.LinkID]bool{}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	err := trace.Scan(f, func(ev trace.Event) error {
		if ev.Msg != id {
			return nil
		}
		if ev.Link != router.NilLink {
			links[ev.Link] = true
		}
		if ev.Kind == trace.KindRouteOK && ev.Arg >= 0 {
			links[router.LinkID(ev.Arg)] = true
		}
		if ev.Kind == trace.KindGSet && ev.Aux >= 0 {
			links[router.LinkID(ev.Aux)] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(links) == 0 {
		fmt.Printf("message %d: no events in trace\n", id)
		return nil
	}
	fmt.Printf("message %d timeline (own events and flag activity on its %d channel(s)):\n", id, len(links))
	lastCycle := int64(-1)
	n := 0
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	err = trace.Scan(f, func(ev trace.Event) error {
		if keep != nil && !keep[ev.Kind] {
			return nil
		}
		own := ev.Msg == id
		onLink := ev.Link != router.NilLink && links[ev.Link]
		// Flag events carry no message; show them when they touch one of
		// the message's channels. Foreign messages' events on those
		// channels are context too, but only the flag/VC ones matter.
		if !own && !(onLink && interesting(ev.Kind)) {
			return nil
		}
		if ev.Cycle != lastCycle {
			fmt.Printf("cycle %d:\n", ev.Cycle)
			lastCycle = ev.Cycle
		}
		marker := " "
		if own {
			marker = "*"
		}
		fmt.Printf("  %s %s\n", marker, describe(ev))
		n++
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d events\n", n)
	return nil
}

// interesting reports whether a foreign event kind is context for a message
// timeline (flag transitions and flow-control on shared channels).
func interesting(k trace.Kind) bool {
	switch k {
	case trace.KindISet, trace.KindIClear, trace.KindDTSet, trace.KindDTClear,
		trace.KindGSet, trace.KindPSet, trace.KindVCFree,
		trace.KindProbeEmit, trace.KindProbeForward, trace.KindProbeDrop,
		trace.KindProbeReturn:
		return true
	}
	return false
}

// The names of the reason codes p-set and probe-drop events carry in Arg.
var (
	pReasons = map[int64]string{trace.PReasonRouteOK: "route-ok", trace.PReasonVCFreed: "vc-freed",
		trace.PReasonNotLastArrival: "not-last-arrival", trace.PReasonAllInactive: "all-inactive"}
	dropReasons = map[int64]string{trace.ProbeDropStale: "stale", trace.ProbeDropRoutable: "routable-header",
		trace.ProbeDropHops: "hop-cap", trace.ProbeDropDeadEnd: "dead-end"}
)

// codeName returns the name of code, or "?" for a code names lacks.
func codeName(names map[int64]string, code int64) string {
	if name, ok := names[code]; ok {
		return name
	}
	return "?"
}

// describe renders one event as a human-readable line.
func describe(ev trace.Event) string {
	s := ev.Kind.String()
	switch ev.Kind {
	case trace.KindInject:
		return fmt.Sprintf("%s msg=%d node=%d dst=%d len=%d (port link %d)", s, ev.Msg, ev.Node, ev.Aux, ev.Arg, ev.Link)
	case trace.KindDeliver:
		return fmt.Sprintf("%s msg=%d node=%d latency=%d", s, ev.Msg, ev.Node, ev.Arg)
	case trace.KindVCAlloc:
		return fmt.Sprintf("%s msg=%d link=%d vc=%d", s, ev.Msg, ev.Link, ev.Aux)
	case trace.KindVCFree:
		if ev.Msg == router.NilMsg {
			return fmt.Sprintf("%s link=%d", s, ev.Link)
		}
		return fmt.Sprintf("%s msg=%d link=%d vc=%d", s, ev.Msg, ev.Link, ev.Aux)
	case trace.KindRouteOK:
		return fmt.Sprintf("%s msg=%d node=%d in=%d -> out link=%d vc=%d", s, ev.Msg, ev.Node, ev.Link, ev.Arg, ev.Aux)
	case trace.KindRouteFail:
		return fmt.Sprintf("%s msg=%d node=%d in=%d attempt=%d", s, ev.Msg, ev.Node, ev.Link, ev.Arg)
	case trace.KindISet, trace.KindIClear, trace.KindDTSet, trace.KindDTClear:
		return fmt.Sprintf("%s link=%d", s, ev.Link)
	case trace.KindGSet:
		rule := word(ev.Arg == trace.GRulePromotion, "promotion", "first-attempt")
		return fmt.Sprintf("%s in=%d node=%d rule=%s witness-out=%d msg=%d", s, ev.Link, ev.Node, rule, ev.Aux, ev.Msg)
	case trace.KindPSet:
		return fmt.Sprintf("%s in=%d node=%d reason=%s", s, ev.Link, ev.Node, codeName(pReasons, ev.Arg))
	case trace.KindDetect:
		return fmt.Sprintf("%s msg=%d node=%d oracle=%s", s, ev.Msg, ev.Node, word(ev.Arg == 1, "TRUE", "FALSE"))
	case trace.KindRecoverStart:
		return fmt.Sprintf("%s msg=%d node=%d style=%s", s, ev.Msg, ev.Node, word(ev.Arg == 1, "regressive", "progressive"))
	case trace.KindRecoverEnd:
		return fmt.Sprintf("%s msg=%d node=%d %s", s, ev.Msg, ev.Node, word(ev.Arg == 1, "delivered", "requeued"))
	case trace.KindOracleDeadlock:
		return fmt.Sprintf("%s msg=%d set-size=%d", s, ev.Msg, ev.Arg)
	case trace.KindProbeEmit, trace.KindProbeForward:
		return fmt.Sprintf("%s initiator=%d node=%d out-link=%d hops=%d chasing msg=%d", s, ev.Msg, ev.Node, ev.Link, ev.Arg, ev.Aux)
	case trace.KindProbeDrop:
		return fmt.Sprintf("%s initiator=%d link=%d reason=%s chasing msg=%d", s, ev.Msg, ev.Link, codeName(dropReasons, ev.Arg), ev.Aux)
	case trace.KindProbeReturn:
		return fmt.Sprintf("%s initiator=%d node=%d link=%d hops=%d victim=%d", s, ev.Msg, ev.Node, ev.Link, ev.Arg, ev.Aux)
	}
	return fmt.Sprintf("%s msg=%d link=%d node=%d arg=%d aux=%d", s, ev.Msg, ev.Link, ev.Node, ev.Arg, ev.Aux)
}
