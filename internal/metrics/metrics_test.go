package metrics

import (
	"strings"
	"testing"
)

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 8, 9, 1000} {
		h.Observe(v)
	}
	// v <= bound lands in the first such bucket: {0,1} {2} {3,4} {5,8} {9,1000}.
	want := []int64{2, 1, 2, 2, 2}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d: got %d, want %d", i, got, w)
		}
	}
	if h.Count() != 9 {
		t.Errorf("Count = %d, want 9", h.Count())
	}
	if h.Sum() != 0+1+2+3+4+5+8+9+1000 {
		t.Errorf("Sum = %d", h.Sum())
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram accepted non-ascending bounds")
		}
	}()
	NewHistogram([]int64{1, 4, 4})
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(16)
	want := []int64{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("ExpBounds(16) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds(16) = %v, want %v", got, want)
		}
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x_total", "")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("marks_total", "Marks by verdict.", "verdict", "true").Add(3)
	r.LabeledCounter("marks_total", "Marks by verdict.", "verdict", "false").Add(40)
	r.Gauge("busy", "Busy things.").Set(7)
	h := r.Histogram("lat", "Latency.", []int64{1, 2})
	h.Observe(1)
	h.Observe(2)
	h.Observe(99)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP busy Busy things.
# TYPE busy gauge
busy 7
# HELP lat Latency.
# TYPE lat histogram
lat_bucket{le="1"} 1
lat_bucket{le="2"} 2
lat_bucket{le="+Inf"} 3
lat_sum 102
lat_count 3
# HELP marks_total Marks by verdict.
# TYPE marks_total counter
marks_total{verdict="false"} 40
marks_total{verdict="true"} 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// buildRunRegistry builds a registry shaped like one run's, with the given
// counter value, gauge high-water and one histogram observation.
func buildRunRegistry(c, g, obs int64) *Registry {
	r := NewRegistry()
	r.Counter("events_total", "h").Add(c)
	r.Gauge("depth", "h").Set(g)
	r.Histogram("lat", "h", []int64{4, 16}).Observe(obs)
	return r
}

func TestMergeSemantics(t *testing.T) {
	agg := NewRegistry()
	agg.Merge(buildRunRegistry(10, 3, 2))  // adopted into the empty registry
	agg.Merge(buildRunRegistry(5, 9, 100)) // summed / maxed into the adoptees

	var b strings.Builder
	if err := agg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"events_total 15\n",        // counters sum
		"depth 9\n",                // gauges keep the high water
		"lat_bucket{le=\"4\"} 1\n", // histograms sum per bucket
		"lat_bucket{le=\"+Inf\"} 2\n",
		"lat_sum 102\n",
		"lat_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMergeIsCommutative(t *testing.T) {
	runs := []*Registry{
		buildRunRegistry(1, 5, 3),
		buildRunRegistry(100, 2, 17),
		buildRunRegistry(7, 7, 1000),
	}
	render := func(order []int) string {
		agg := NewRegistry()
		for _, i := range order {
			agg.Merge(runs[i])
		}
		var b strings.Builder
		if err := agg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := render([]int{0, 1, 2})
	b := render([]int{2, 0, 1})
	if a != b {
		t.Errorf("merge order changed the aggregate:\n%s\nvs:\n%s", a, b)
	}
}
