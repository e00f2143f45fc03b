// The incidents view renders deadlock incident reports — the per-episode
// causal records reconstructed by internal/forensics from the flight
// recorder's event stream.
//
// It accepts either kind of file (or stdin) and tells them apart by
// sniffing the first line:
//
//   - an incident report (JSONL of episodes) written by `wormsim -forensics`
//     or the harness's -forensics-dir option, rendered directly;
//   - a raw trace (JSONL of events) written by `wormsim -trace`, replayed
//     through the episode correlator first. Offline replay of a streamed
//     trace reconstructs byte-for-byte the same report the online observer
//     produced during the run.
//
// Summary (default): per-verdict episode counts, mechanism, MTTD/MTTR
// aggregates and a one-line digest of every episode.
//
//	wormview incidents incidents.jsonl
//	wormview incidents events.jsonl
//
// Episode timeline (-episode): the full causal story of one episode —
// formation cycle, members, marks with rule attribution and blocking
// chains, victims and drain times.
//
//	wormview incidents -episode 2 incidents.jsonl
//
// Machine output: -json re-emits the (decoded or reconstructed) episodes
// as JSONL on stdout; -write saves them to a file — `wormview incidents
// -write incidents.jsonl events.jsonl` turns a trace into an incident
// report.
//
// -mech forces the mechanism stamped on reconstructed episodes when
// replaying a trace whose mechanism is not inferable from its events.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"wormnet/internal/forensics"
	"wormnet/internal/harness"
)

func incidentsView(fs *flag.FlagSet) func(*input) error {
	var (
		episode  = fs.Int("episode", 0, "render the full timeline of this episode id (ids start at 1; 0 = summary of all)")
		jsonOut  = fs.Bool("json", false, "re-emit the episodes as JSONL on stdout instead of rendering")
		writeTo  = fs.String("write", "", "save the episodes as JSONL to this file (useful to turn a trace into an incident report)")
		mechName = fs.String("mech", "", "force the mechanism name stamped on episodes reconstructed from a trace (default: inferred from events)")
	)
	return func(in *input) error {
		episodes, err := load(in.f, *mechName)
		if err != nil {
			return err
		}
		if *writeTo != "" {
			err := harness.WriteFile(*writeTo, func(w io.Writer) error { return forensics.WriteJSONL(w, episodes) })
			if err != nil {
				return fmt.Errorf("writing %s: %v", *writeTo, err)
			}
		}
		if *jsonOut {
			return forensics.WriteJSONL(os.Stdout, episodes)
		}
		if *episode > 0 {
			for _, ep := range episodes {
				if ep.ID == *episode {
					printEpisodeTimeline(ep)
					return nil
				}
			}
			return fmt.Errorf("no episode %d (report has %d)", *episode, len(episodes))
		}
		printIncidentSummary(in.name, episodes)
		return nil
	}
}

// load sniffs whether rd is an incident report or a raw trace and returns
// the episodes either way. Sniffing keys off the first non-empty line:
// trace events always carry a "kind" field, episodes never do.
func load(rd io.Reader, mech string) ([]*forensics.Episode, error) {
	br := bufio.NewReaderSize(rd, 4096)
	head, err := br.Peek(4096)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if line, _, _ := bytes.Cut(head, []byte("\n")); bytes.Contains(line, []byte(`"kind":`)) {
		return forensics.Correlate(br, forensics.Options{Mechanism: mech})
	}
	return forensics.DecodeEpisodes(br)
}

func printIncidentSummary(name string, episodes []*forensics.Episode) {
	if len(episodes) == 0 {
		fmt.Printf("%s: no deadlock episodes\n", name)
		return
	}
	var trues, unresolved int
	var mttdSum, mttdN, mttrSum, mttrN int64
	mech := ""
	for _, ep := range episodes {
		if ep.Verdict == forensics.VerdictTrueDeadlock {
			trues++
		}
		if ep.Unresolved {
			unresolved++
		}
		if ep.MTTDCycles >= 0 {
			mttdSum += ep.MTTDCycles
			mttdN++
		}
		if ep.MTTRCycles >= 0 {
			mttrSum += ep.MTTRCycles
			mttrN++
		}
		if mech == "" {
			mech = ep.Mechanism
		}
	}
	fmt.Printf("%s: %d episode(s), mechanism %s\n", name, len(episodes), mech)
	fmt.Printf("  verdicts:   %d true-deadlock, %d false-positive", trues, len(episodes)-trues)
	if unresolved > 0 {
		fmt.Printf(" (%d unresolved at trace end)", unresolved)
	}
	fmt.Println()
	printMean("  MTTD:       ", mttdSum, mttdN)
	printMean("  MTTR:       ", mttrSum, mttrN)
	fmt.Println()
	for _, ep := range episodes {
		span := fmt.Sprintf("%d..%d", ep.OpenCycle, ep.CloseCycle)
		if ep.CloseCycle < 0 {
			span = fmt.Sprintf("%d..(open)", ep.OpenCycle)
		}
		fmt.Printf("  #%d %-14s cycles %-13s members=%d marks=%d victims=%d",
			ep.ID, ep.Verdict, span, len(ep.Members), len(ep.Marks), len(ep.Victims))
		if ep.MTTDCycles >= 0 {
			fmt.Printf(" mttd=%d", ep.MTTDCycles)
		}
		if ep.MTTRCycles >= 0 {
			fmt.Printf(" mttr=%d", ep.MTTRCycles)
		}
		fmt.Println()
	}
}

func printEpisodeTimeline(ep *forensics.Episode) {
	fmt.Printf("episode %d: %s, mechanism %s\n", ep.ID, ep.Verdict, ep.Mechanism)
	span := fmt.Sprintf("%d..%d", ep.OpenCycle, ep.CloseCycle)
	if ep.CloseCycle < 0 {
		span = fmt.Sprintf("%d.. (unresolved at trace end)", ep.OpenCycle)
	}
	fmt.Printf("  span:       cycles %s\n", span)
	if ep.PeakOracleSet > 0 {
		fmt.Printf("  oracle:     peak deadlocked set %d\n", ep.PeakOracleSet)
	}
	if ep.MTTDCycles >= 0 {
		fmt.Printf("  MTTD:       %d cycles (open -> first mark)\n", ep.MTTDCycles)
	}
	if ep.MTTRCycles >= 0 {
		fmt.Printf("  MTTR:       %d cycles (first mark -> drained)\n", ep.MTTRCycles)
	}
	if len(ep.Formation) > 0 {
		fmt.Printf("  formation (channel-wait-for cycle, %d edge(s)):\n", len(ep.Formation))
		for _, e := range ep.Formation {
			fmt.Printf("    msg %d blocked at node %d waits on link %d held by msg %d\n",
				e.Msg, e.Node, e.Link, e.Next)
		}
	}
	if len(ep.Members) > 0 {
		fmt.Printf("  members (%d, oracle sighting order):\n", len(ep.Members))
		for _, m := range ep.Members {
			fmt.Printf("    msg %d sighted cycle %d, blocked at node %d in-link %d since cycle %d, holds %v\n",
				m.Msg, m.Sighted, m.Node, m.InLink, m.BlockedSince, m.Holds)
		}
	}
	if len(ep.Marks) > 0 {
		fmt.Printf("  marks (%d):\n", len(ep.Marks))
		for _, mk := range ep.Marks {
			fmt.Printf("    cycle %d msg %d node %d %s rule=%s", mk.Cycle, mk.Msg, mk.Node, word(mk.True, "TRUE", "FALSE"), mk.Rule)
			if mk.Hops > 0 {
				fmt.Printf(" hops=%d", mk.Hops)
			}
			if mk.SinceBlocked >= 0 {
				fmt.Printf(" blocked-for=%d", mk.SinceBlocked)
			}
			if mk.OracleLatency >= 0 {
				fmt.Printf(" oracle-latency=%d", mk.OracleLatency)
			}
			fmt.Println()
			if len(mk.Chain) > 0 {
				fmt.Printf("      blocking chain (%s):\n", mk.ChainEnd)
				for _, e := range mk.Chain {
					fmt.Printf("        msg %d at node %d -> link %d held by msg %d\n",
						e.Msg, e.Node, e.Link, e.Next)
				}
			}
		}
	}
	if len(ep.Victims) > 0 {
		fmt.Printf("  victims (%d, ~%d flits absorbed):\n", len(ep.Victims), ep.AbsorbedFlitsEst)
		for _, v := range ep.Victims {
			style := word(v.Style == 1, "regressive", "progressive")
			if v.End < 0 {
				fmt.Printf("    msg %d recovery started cycle %d (%s), still draining at trace end\n",
					v.Msg, v.Start, style)
				continue
			}
			fmt.Printf("    msg %d recovered cycles %d..%d (%s, %d cycle(s) drain, %d flit(s), %s at node %d)\n",
				v.Msg, v.Start, v.End, style, v.DrainCycles, v.LengthFlits, word(v.Delivered, "delivered", "requeued"), v.Node)
		}
	}
}
