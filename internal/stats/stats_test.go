package stats

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wormnet/internal/snap"
)

func TestCountersPercentages(t *testing.T) {
	c := Counters{Delivered: 2000, Marked: 5, FalseMarked: 3}
	if got := c.PctMarked(); got != 0.25 {
		t.Errorf("PctMarked = %v", got)
	}
	if got := c.PctFalseMarked(); got != 0.15 {
		t.Errorf("PctFalseMarked = %v", got)
	}
	var empty Counters
	if empty.PctMarked() != 0 || empty.PctFalseMarked() != 0 {
		t.Error("division by zero not guarded")
	}
}

func TestCountersLatencyAndThroughput(t *testing.T) {
	c := Counters{
		Delivered:      4,
		LatencySum:     400,
		NetLatencySum:  200,
		DeliveredFlits: 640,
		Cycles:         100,
		Nodes:          16,
	}
	if got := c.AvgLatency(); got != 100 {
		t.Errorf("AvgLatency = %v", got)
	}
	if got := c.AvgNetLatency(); got != 50 {
		t.Errorf("AvgNetLatency = %v", got)
	}
	if got := c.Throughput(); got != 0.4 {
		t.Errorf("Throughput = %v", got)
	}
	var empty Counters
	if empty.AvgLatency() != 0 || empty.Throughput() != 0 {
		t.Error("zero guards missing")
	}
}

func TestRecordMarks(t *testing.T) {
	var c Counters
	c.RecordMarks(0)  // ignored
	c.RecordMarks(-1) // ignored
	c.RecordMarks(1)
	c.RecordMarks(1)
	c.RecordMarks(3)
	c.RecordMarks(100) // overflow bucket
	if c.MarksPerCycleHist[1] != 2 || c.MarksPerCycleHist[3] != 1 || c.MarksPerCycleHist[0] != 1 {
		t.Errorf("histogram %v", c.MarksPerCycleHist)
	}
}

func TestCountersString(t *testing.T) {
	c := Counters{Delivered: 10, Marked: 1, Cycles: 100, Nodes: 4}
	if s := c.String(); !strings.Contains(s, "del=10") {
		t.Errorf("String: %s", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1.25)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram not zeroed")
	}
	for i := int64(1); i <= 100; i++ {
		h.Add(i)
	}
	if h.Count() != 100 {
		t.Errorf("count %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("extremes %d..%d", h.Min(), h.Max())
	}
	if m := h.Mean(); m != 50.5 {
		t.Errorf("mean %v", m)
	}
	// Quantiles within one bucket (25% growth): generous tolerance.
	if q := h.Quantile(0.5); q < 35 || q > 70 {
		t.Errorf("p50 = %d", q)
	}
	if q := h.Quantile(0.99); q < 70 || q > 100 {
		t.Errorf("p99 = %d", q)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Error("extreme quantiles")
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := NewHistogram(2)
	h.Add(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Error("negative sample not clamped")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(1.5), NewHistogram(1.5)
	for i := int64(0); i < 50; i++ {
		a.Add(i)
	}
	for i := int64(50); i < 100; i++ {
		b.Add(i)
	}
	a.Merge(b)
	if a.Count() != 100 || a.Min() != 0 || a.Max() != 99 {
		t.Errorf("merged: %s", a)
	}
	if m := a.Mean(); m != 49.5 {
		t.Errorf("merged mean %v", m)
	}
	// Merging an empty histogram is a no-op.
	a.Merge(NewHistogram(1.5))
	if a.Count() != 100 {
		t.Error("empty merge changed count")
	}
}

func TestHistogramMergeGrowthMismatch(t *testing.T) {
	a, b := NewHistogram(1.5), NewHistogram(2)
	b.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.Merge(b)
}

func TestHistogramGrowthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(1.0)
}

// TestHistogramQuantileBounds: quantiles always land within [min, max] and
// are monotone in q.
func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram(1.3)
	err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		hh := NewHistogram(1.3)
		for _, v := range raw {
			hh.Add(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := hh.Quantile(q)
			if v < hh.Min() || v > hh.Max() || v < prev {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
	_ = h
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(1.25)
	if h.String() != "histogram(empty)" {
		t.Error("empty string form")
	}
	h.Add(10)
	if !strings.Contains(h.String(), "n=1") {
		t.Errorf("String: %s", h.String())
	}
}

func TestHistogramBars(t *testing.T) {
	h := NewHistogram(2)
	if h.Bars(10) != "" {
		t.Error("bars of empty histogram")
	}
	for i := 0; i < 32; i++ {
		h.Add(int64(i))
	}
	bars := h.Bars(20)
	if !strings.Contains(bars, "#") {
		t.Errorf("bars:\n%s", bars)
	}
	if h.Bars(0) != "" {
		t.Error("width 0 should render nothing")
	}
}

// TestCountersSnapshotCoversEveryField sets every field of Counters to a
// distinct value by reflection and round-trips it: a counter added to the
// struct but not to AppendSnapshot would silently reset on sim.Engine.Restore.
// Nodes and NetLinks belong to the fabric and are deliberately not written.
func TestCountersSnapshotCoversEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	next := int64(100)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64, reflect.Int:
			next++
			f.SetInt(next)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				next++
				f.Index(j).SetInt(next)
			}
		default:
			t.Fatalf("Counters.%s has kind %s: teach AppendSnapshot and this test about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	got := Counters{Nodes: c.Nodes, NetLinks: c.NetLinks}
	r := snap.NewReader(c.AppendSnapshot(nil))
	got.RestoreSnapshot(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Errorf("round trip lost a field\n got %+v\nwant %+v", got, c)
	}
}

// TestCountersSubCoversEveryField sets every field of Counters by reflection,
// base to i and c to 3i, and checks that Sub leaves 2i in every count and
// histogram bucket and c's own value in the size and maximum fields: a
// counter Sub misses would leak warm-up counts into the measured window.
func TestCountersSubCoversEveryField(t *testing.T) {
	var base, c Counters
	vb, vc := reflect.ValueOf(&base).Elem(), reflect.ValueOf(&c).Elem()
	next := int64(0)
	set := func(b, c reflect.Value) {
		next++
		b.SetInt(next)
		c.SetInt(3 * next)
	}
	for i := 0; i < vc.NumField(); i++ {
		if vc.Field(i).Kind() == reflect.Array {
			for j := 0; j < vc.Field(i).Len(); j++ {
				set(vb.Field(i).Index(j), vc.Field(i).Index(j))
			}
			continue
		}
		set(vb.Field(i), vc.Field(i))
	}
	d := c.Sub(&base)
	vd := reflect.ValueOf(&d).Elem()
	own := map[string]bool{"Nodes": true, "NetLinks": true, "MaxLatency": true, "MaxDeadlockSet": true}
	for i := 0; i < vd.NumField(); i++ {
		name := vd.Type().Field(i).Name
		f, fb := vd.Field(i), vb.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				if got, want := f.Index(j).Int(), 2*fb.Index(j).Int(); got != want {
					t.Errorf("%s[%d] = %d, want %d", name, j, got, want)
				}
			}
			continue
		}
		want := 2 * fb.Int()
		if own[name] {
			want = vc.Field(i).Int()
		}
		if f.Int() != want {
			t.Errorf("%s = %d, want %d", name, f.Int(), want)
		}
	}
}

// TestHistogramSnapshot round-trips samples into a histogram that held other
// samples, and checks the inputs RestoreSnapshot refuses.
func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram(1.25)
	for _, v := range []int64{0, 1, 1, 7, 300, 300, 12345} {
		h.Add(v)
	}
	b := h.AppendSnapshot(nil)
	for _, into := range []*Histogram{NewHistogram(1.25), func() *Histogram {
		used := NewHistogram(1.25)
		used.Add(1 << 40)
		return used
	}()} {
		r := snap.NewReader(b)
		into.RestoreSnapshot(&r)
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if into.String() != h.String() || into.Mean() != h.Mean() || !bytes.Equal(into.AppendSnapshot(nil), b) {
			t.Errorf("restored %v, want %v", into, h)
		}
	}
	empty := NewHistogram(1.25).AppendSnapshot(nil)
	r := snap.NewReader(empty)
	h.RestoreSnapshot(&r)
	if err := r.Done(); err != nil || h.Count() != 0 || h.String() != "histogram(empty)" {
		t.Errorf("restoring the empty histogram: %v, %v", err, h)
	}

	negative := snap.I64(snap.U32(nil, 1), -1)
	negative = snap.I64(snap.I64(snap.I64(negative, 0), 0), 0)
	tooMany := snap.U32(nil, 4000)
	tooMany = append(tooMany, make([]byte, 8*4000+24)...)
	minAboveMax := snap.I64(snap.U32(nil, 1), 2)
	minAboveMax = snap.I64(snap.I64(snap.I64(minAboveMax, 10), 9), 1)
	for name, in := range map[string][]byte{"negative count": negative, "4000 buckets": tooMany, "min above max": minAboveMax, "truncated": b[:len(b)-1]} {
		r := snap.NewReader(in)
		NewHistogram(1.25).RestoreSnapshot(&r)
		if r.Done() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
