package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// A span is one call the benchmark made into a layer. Spans are recorded from
// the benchmark's side of the call only (nothing inside the simulator is
// instrumented), kept in memory and written out when the run ends.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the causing span, -1 for a root
	Workload string `json:"workload"`
}

// tracer collects spans. A nil *tracer records nothing, so the untraced
// end-to-end runs pay one nil check per call site and never read the clock.
type tracer struct {
	mu       sync.Mutex // harness workers end spans concurrently
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: now, Parent: parent, Workload: t.workload})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// durations returns the length in seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// selfSeconds returns, for every span, its duration minus the part of that
// interval its direct children cover (children may overlap each other:
// harness runs do).
func (t *tracer) selfSeconds() []float64 {
	kids := make(map[int][]int)
	for id, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], id)
		}
	}
	self := make([]float64, len(t.spans))
	for id, p := range t.spans {
		ks := kids[id]
		sort.Slice(ks, func(i, j int) bool { return t.spans[ks[i]].StartNS < t.spans[ks[j]].StartNS })
		covered, reach := int64(0), p.StartNS
		for _, k := range ks {
			lo, hi := max(t.spans[k].StartNS, reach), t.spans[k].EndNS
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[id] = float64(p.EndNS-p.StartNS-covered) / 1e9
	}
	return self
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	Name          string
	Count         int
	TotalS, SelfS float64
}

// layerSummary groups spans by name, in first-seen order: the per-layer
// host-time attribution of one traced run.
func (t *tracer) layerSummary() []layerTime {
	self := t.selfSeconds()
	idx := map[string]int{}
	var out []layerTime
	for id, s := range t.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layerTime{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalS += float64(s.EndNS-s.StartNS) / 1e9
		out[i].SelfS += self[id]
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
