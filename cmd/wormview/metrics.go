// The metrics view summarizes and plots the time series sampled by the
// metrics collector.
//
// Default view: a run summary followed by a per-window table — injection and
// delivery rates (differenced from the cumulative counters), blocked
// headers, VC/link occupancy, I/DT/G flag populations, detector marks per
// window split true/false, and recovery depth — with an ASCII bar column
// plotting one field over time:
//
//	wormview metrics run.series.jsonl
//	wormview metrics -plot dtFlags -width 60 run.series.jsonl
//	curl -s localhost:8080/series | wormview metrics
//
// The input is the JSONL form of the series (one sample object per line);
// use `wormsim -series run.jsonl` or the /series endpoint without
// ?format=csv.
package main

import (
	"errors"
	"flag"
	"fmt"
	"sort"
	"strings"

	"wormnet/internal/metrics"
)

// field is one plottable column: a value extracted from a sample, with the
// previous sample available so cumulative counters can be differenced into
// per-window rates.
type field struct {
	name string
	desc string
	rate bool // per-cycle rate (differenced cumulative counter)
	get  func(prev, cur *metrics.Sample) float64
}

func delta(get func(*metrics.Sample) int64) func(prev, cur *metrics.Sample) float64 {
	return func(prev, cur *metrics.Sample) float64 { return float64(deltaOf(prev, cur, get)) }
}

func gauge(get func(*metrics.Sample) int32) func(prev, cur *metrics.Sample) float64 {
	return func(_, cur *metrics.Sample) float64 { return float64(get(cur)) }
}

var fields = []field{
	{"injected", "messages injected per cycle", true, delta(func(s *metrics.Sample) int64 { return s.Injected })},
	{"delivered", "messages delivered per cycle", true, delta(func(s *metrics.Sample) int64 { return s.Delivered })},
	{"flits", "flits delivered per cycle", true, delta(func(s *metrics.Sample) int64 { return s.DeliveredFlit })},
	{"marks", "detector marks per window", false, delta(func(s *metrics.Sample) int64 { return s.MarkedTrue + s.MarkedFalse })},
	{"queued", "messages waiting in source queues", false, gauge(func(s *metrics.Sample) int32 { return s.Queued })},
	{"blocked", "blocked headers", false, gauge(func(s *metrics.Sample) int32 { return s.Blocked })},
	{"busyVCs", "occupied virtual channels", false, gauge(func(s *metrics.Sample) int32 { return s.BusyVCs })},
	{"busyLinks", "busy physical channels", false, gauge(func(s *metrics.Sample) int32 { return s.BusyLinks })},
	{"nonemptyQueues", "nodes with waiting source queues", false, gauge(func(s *metrics.Sample) int32 { return s.NonemptyQueues })},
	{"activeLinks", "links that carried a flit this cycle", false, gauge(func(s *metrics.Sample) int32 { return s.ActiveLinks })},
	{"wormsInFlight", "worms between admission and delivery", false, gauge(func(s *metrics.Sample) int32 { return s.WormsInFlight })},
	{"iFlags", "output channels with I set", false, gauge(func(s *metrics.Sample) int32 { return s.IFlags })},
	{"dtFlags", "output channels with DT set", false, gauge(func(s *metrics.Sample) int32 { return s.DTFlags })},
	{"gFlags", "input channels holding G", false, gauge(func(s *metrics.Sample) int32 { return s.GFlags })},
	{"recoveryDepth", "messages undergoing recovery", false, gauge(func(s *metrics.Sample) int32 { return s.RecoveryDepth })},
	{"oracleSet", "oracle deadlocked-set size", false, gauge(func(s *metrics.Sample) int32 { return s.OracleSet })},
	{"probesInFlight", "cmh probes in flight", false, gauge(func(s *metrics.Sample) int32 { return s.ProbesInFlight })},
	{"episodes", "deadlock episodes closed per window", false, delta(func(s *metrics.Sample) int64 { return s.EpisodesTrue + s.EpisodesFalse })},
	{"episodesOpen", "deadlock episodes in flight", false, gauge(func(s *metrics.Sample) int32 { return s.EpisodesOpen })},
}

func fieldByName(name string) *field {
	for i := range fields {
		if fields[i].name == name {
			return &fields[i]
		}
	}
	return nil
}

func metricsView(fs *flag.FlagSet) func(*input) error {
	var (
		plot    = fs.String("plot", "busyVCs", "field rendered as the bar column (see -fields)")
		width   = fs.Int("width", 40, "bar column width in characters")
		summary = fs.Bool("summary", false, "print only the run summary, no per-window table")
		list    = fs.Bool("fields", false, "list plottable fields and exit")
	)
	return func(in *input) error {
		if *list {
			for _, f := range fields {
				fmt.Printf("  %-14s %s\n", f.name, f.desc)
			}
			return nil
		}
		pf := fieldByName(*plot)
		if pf == nil {
			return fmt.Errorf("unknown -plot field %q (see -fields)", *plot)
		}
		if *width < 1 {
			return fmt.Errorf("-width must be >= 1, got %d", *width)
		}

		samples, err := metrics.DecodeSeries(in.f)
		if err != nil {
			return err
		}
		if len(samples) == 0 {
			return errors.New("empty series")
		}
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].Cycle < samples[j].Cycle })

		printSeriesSummary(in.name, samples)
		if *summary {
			return nil
		}
		fmt.Println()
		printTable(samples, pf, *width)
		return nil
	}
}

// printSeriesSummary reports the series' span, the cumulative totals at its
// last sample, and the peak of every gauge.
func printSeriesSummary(name string, samples []metrics.Sample) {
	first, last := &samples[0], &samples[len(samples)-1]
	window := int64(0)
	if len(samples) > 1 {
		window = samples[1].Cycle - samples[0].Cycle
	}
	fmt.Printf("%s: %d samples, cycles %d..%d", name, len(samples), first.Cycle, last.Cycle)
	if window > 0 {
		fmt.Printf(" (window %d)", window)
	}
	fmt.Println()
	fmt.Printf("totals:  generated %d  injected %d  delivered %d (%d flits)\n",
		last.Generated, last.Injected, last.Delivered, last.DeliveredFlit)
	fmt.Printf("marks:   %d true, %d false; recovered %d, reinjected %d\n",
		last.MarkedTrue, last.MarkedFalse, last.Recovered, last.Reinjected)
	if last.EpisodesTrue+last.EpisodesFalse > 0 || last.EpisodesOpen > 0 {
		fmt.Printf("episodes: %d true-deadlock, %d false-positive (%d still open)\n",
			last.EpisodesTrue, last.EpisodesFalse, last.EpisodesOpen)
		printMean("MTTD:    ", last.MTTDSum, last.MTTDCount)
		printMean("MTTR:    ", last.MTTRSum, last.MTTRCount)
	}

	var peaks strings.Builder
	for _, f := range fields {
		if f.rate || f.name == "marks" || f.name == "episodes" {
			continue
		}
		max := 0.0
		for i := range samples {
			if v := f.get(nil, &samples[i]); v > max {
				max = v
			}
		}
		fmt.Fprintf(&peaks, " %s %g", f.name, max)
	}
	fmt.Printf("peaks:  %s\n", peaks.String())
}

// printTable renders the per-window table plus the bar plot of one field.
func printTable(samples []metrics.Sample, pf *field, width int) {
	max := 0.0
	var prev *metrics.Sample
	for i := range samples {
		if v := value(pf, prev, &samples[i]); v > max {
			max = v
		}
		prev = &samples[i]
	}
	fmt.Printf("%-9s %7s %7s %6s %5s %6s %4s %4s %4s %4s %10s  |%s (max %g)\n",
		"cycle", "inj/c", "dlv/c", "blkd", "vcs", "links", "I", "DT", "G", "rec", "marks(T/F)", pf.name, max)
	prev = nil
	for i := range samples {
		s := &samples[i]
		cycles := int64(1)
		if prev != nil {
			cycles = s.Cycle - prev.Cycle
		} else if s.Cycle > 0 {
			cycles = s.Cycle
		}
		injRate := ratePer(prev, s, cycles, func(x *metrics.Sample) int64 { return x.Injected })
		dlvRate := ratePer(prev, s, cycles, func(x *metrics.Sample) int64 { return x.Delivered })
		mt := deltaOf(prev, s, func(x *metrics.Sample) int64 { return x.MarkedTrue })
		mf := deltaOf(prev, s, func(x *metrics.Sample) int64 { return x.MarkedFalse })
		v := value(pf, prev, s)
		bar := 0
		if max > 0 {
			bar = int(v / max * float64(width))
		}
		fmt.Printf("%-9d %7.3f %7.3f %6d %5d %6d %4d %4d %4d %4d %7d/%-3d |%s\n",
			s.Cycle, injRate, dlvRate, s.Blocked, s.BusyVCs, s.BusyLinks,
			s.IFlags, s.DTFlags, s.GFlags, s.RecoveryDepth, mt, mf,
			strings.Repeat("#", bar))
		prev = s
	}
}

// value evaluates a field for one row, scaling rates to per-cycle.
func value(f *field, prev, cur *metrics.Sample) float64 {
	v := f.get(prev, cur)
	if f.rate {
		cycles := int64(1)
		if prev != nil {
			cycles = cur.Cycle - prev.Cycle
		} else if cur.Cycle > 0 {
			cycles = cur.Cycle
		}
		if cycles > 0 {
			v /= float64(cycles)
		}
	}
	return v
}

func deltaOf(prev, cur *metrics.Sample, get func(*metrics.Sample) int64) int64 {
	v := get(cur)
	if prev != nil {
		v -= get(prev)
	}
	return v
}

func ratePer(prev, cur *metrics.Sample, cycles int64, get func(*metrics.Sample) int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(deltaOf(prev, cur, get)) / float64(cycles)
}
