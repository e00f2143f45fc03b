package metrics

import (
	"strings"
	"testing"

	"wormnet/internal/stats"
)

func TestHistogramBucketPlacement(t *testing.T) {
	c := NewCollector(Options{})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 8, 9, 1000, 4096, 4097} {
		c.ObserveDetectDelay(v)
	}
	// v <= bound lands in the first such bucket: {0,1} {2} {3,4} {5,8} {9}
	// ... {1000} under 1024 ... {4096}, then {4097} in +Inf.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 12: 1, 13: 1}
	h := c.hist(hDetectDelay)
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, got, want[i])
		}
	}
	if h.count.Load() != 11 {
		t.Errorf("count = %d, want 11", h.count.Load())
	}
	if h.sum.Load() != 0+1+2+3+4+5+8+9+1000+4096+4097 {
		t.Errorf("sum = %d", h.sum.Load())
	}
}

// queueProber reports q queued messages, and q busy VCs on every dimension.
type queueProber int32

func (q queueProber) ProbeMetrics(s *Sample) {
	s.Queued = int32(q)
	for d := range s.DimVCs {
		s.DimVCs[d] = int32(q)
	}
}

// runCollector is one finished run's collector: attached to detector on a
// dims-dimensional topology, with delivered messages counted, one sample
// whose queue gauge read queued, and one latency observation.
func runCollector(detector string, dims int, delivered int64, queued int32, latency int64) *Collector {
	c := NewCollector(Options{})
	c.Attach(detector, dims)
	c.EndCycle(0, &stats.Counters{Cycles: 1, Delivered: delivered}, 0, queueProber(queued))
	c.ObserveLatency(latency)
	return c
}

func render(t *testing.T, c *Collector) string {
	t.Helper()
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWritePrometheusFormat: families sorted by name and members by label
// compared as strings, HELP/TYPE once per family, cumulative histogram
// buckets, and no per-run family on a collector never attached.
func TestWritePrometheusFormat(t *testing.T) {
	c := runCollector("ndm(t2=32)", 11, 5, 7, 3)
	c.ObserveLatency(1 << 20)
	out := render(t, c)
	var dims []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, `wormnet_dim_busy_vcs{dim="`); ok {
			dims = append(dims, rest[:strings.IndexByte(rest, '"')])
		}
	}
	if got, want := strings.Join(dims, ","), "0,1,10,2,3,4,5,6,7,8,9"; got != want {
		t.Errorf("dim members in order %s, want %s", got, want)
	}
	for _, want := range []string{
		"# HELP wormnet_marks_total Detector marks by oracle verdict.\n# TYPE wormnet_marks_total counter\n" +
			"wormnet_marks_total{verdict=\"false\"} 0\nwormnet_marks_total{verdict=\"true\"} 0\n",
		"wormnet_info{detector=\"ndm(t2=32)\"} 1\n",
		"wormnet_messages_delivered_total 5\n",
		"wormnet_source_queued 7\n",
		"wormnet_latency_cycles_bucket{le=\"2\"} 0\nwormnet_latency_cycles_bucket{le=\"4\"} 1\n",
		"wormnet_latency_cycles_bucket{le=\"16384\"} 1\nwormnet_latency_cycles_bucket{le=\"+Inf\"} 2\n" +
			"wormnet_latency_cycles_sum 1048579\nwormnet_latency_cycles_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE wormnet_dim_busy_vcs gauge\n"); n != 1 {
		t.Errorf("dim family has %d TYPE lines, want 1", n)
	}
	bare := render(t, NewCollector(Options{}))
	for _, family := range []string{"wormnet_info", "wormnet_dim_busy_vcs", "wormnet_dim_busy_links"} {
		if strings.Contains(bare, family) {
			t.Errorf("unattached collector renders %s", family)
		}
	}
	if !strings.Contains(bare, "wormnet_cycles_total 0\n") {
		t.Errorf("unattached collector lacks the fixed families:\n%s", bare)
	}
}

func TestMergeSemantics(t *testing.T) {
	agg := NewCollector(Options{})
	agg.Merge(runCollector("pdm", 2, 10, 3, 2))
	agg.Merge(runCollector("ndm", 3, 5, 9, 100))
	agg.Merge(runCollector("ndm", 2, 1, 1, 1))
	out := render(t, agg)
	for _, want := range []string{
		"wormnet_messages_delivered_total 16\n",                                // counters sum
		"wormnet_source_queued 9\n",                                            // gauges keep the high water
		"wormnet_dim_busy_vcs{dim=\"2\"} 9\n",                                  // the longest run's dimensions
		"wormnet_info{detector=\"ndm\"} 1\nwormnet_info{detector=\"pdm\"} 1\n", // detectors unioned
		"wormnet_latency_cycles_bucket{le=\"2\"} 2\n",                          // histograms sum per bucket
		"wormnet_latency_cycles_bucket{le=\"+Inf\"} 3\n",
		"wormnet_latency_cycles_sum 103\n",
		"wormnet_latency_cycles_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMergeIsCommutative(t *testing.T) {
	runs := []*Collector{
		runCollector("ndm", 2, 1, 5, 3),
		runCollector("cmh", 3, 100, 2, 17),
		runCollector("pdm", 1, 7, 7, 1000),
	}
	merged := func(order ...int) string {
		agg := NewCollector(Options{})
		for _, i := range order {
			agg.Merge(runs[i])
		}
		return render(t, agg)
	}
	if a, b := merged(0, 1, 2), merged(2, 0, 1); a != b {
		t.Errorf("merge order changed the aggregate:\n%s\nvs:\n%s", a, b)
	}
}

// TestSchemaDeclaresEachQuantityOnce: no two schema rows render the same
// member, every histogram's buckets fit its state, and every scalar Sample
// field but the cycle is carried by exactly one row, so a new Sample field
// without its row fails here.
func TestSchemaDeclaresEachQuantityOnce(t *testing.T) {
	members := map[string]bool{}
	for _, q := range schema {
		key := q.name + "{" + q.labelKey + "=" + q.labelVal + "}"
		if members[key] {
			t.Errorf("%s is declared twice", key)
		}
		members[key] = true
		if q.kind == histogram && q.bounds() >= maxBuckets {
			t.Errorf("%s has %d finite bounds; a histogram holds %d", q.name, q.bounds(), maxBuckets-1)
		}
	}
	carried := map[int]int{}
	for _, f := range sampled {
		carried[f.field]++
		if schema[f.m].kind == histogram {
			carried[f.count]++
		}
	}
	for i, f := range sampleColumns {
		if sampleKeys[i] == "cycle" {
			continue
		}
		if carried[f] != 1 {
			t.Errorf("Sample field %q is carried by %d schema rows, want 1", sampleKeys[i], carried[f])
		}
	}
}
