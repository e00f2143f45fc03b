package metrics

import (
	"strings"
	"testing"

	"wormnet/internal/stats"
)

// fakeProber stamps recognizable gauge values, scaled by how often it has
// been probed so adjacent samples differ.
type fakeProber struct{ probes int32 }

func (p *fakeProber) ProbeMetrics(s *Sample) {
	p.probes++
	s.Queued = 10 * p.probes
	s.Blocked = 2
	s.BusyVCs = 5 * p.probes
	s.BusyLinks = 3
	s.IFlags, s.DTFlags, s.GFlags = 1, 2, 3
	s.RecoveryDepth = 4
	s.OracleSet = 1
	for d := range s.DimVCs {
		s.DimVCs[d] = int32(d + 1)
		s.DimLinks[d] = int32(d + 10)
	}
}

func meteredCollector(t *testing.T, window, cycles int64) (*Collector, *fakeProber) {
	t.Helper()
	c := NewCollector(Options{Window: window})
	c.Attach("test", 2)
	p := &fakeProber{}
	var totals stats.Counters
	for now := int64(0); now < cycles; now++ {
		totals.Cycles++
		totals.Delivered++
		c.EndCycle(now, &totals, 0, p)
	}
	return c, p
}

func TestCollectorSamplesOnWindowBoundaries(t *testing.T) {
	c, p := meteredCollector(t, 100, 1000)
	// Samples at cycles 0, 100, ..., 900.
	if got := c.SampleCount(); got != 10 {
		t.Fatalf("SampleCount = %d, want 10", got)
	}
	if p.probes != 10 {
		t.Fatalf("prober called %d times, want 10", p.probes)
	}
	samples := c.Samples(nil)
	for i, s := range samples {
		if want := int64(i * 100); s.Cycle != want {
			t.Errorf("sample %d at cycle %d, want %d", i, s.Cycle, want)
		}
		if want := int64(i*100) + 1; s.Delivered != want {
			t.Errorf("sample %d: Delivered = %d, want %d", i, s.Delivered, want)
		}
		if want := int32(10 * (i + 1)); s.Queued != want {
			t.Errorf("sample %d: Queued = %d, want %d", i, s.Queued, want)
		}
		if len(s.DimVCs) != 2 || s.DimVCs[1] != 2 || s.DimLinks[1] != 11 {
			t.Errorf("sample %d: per-dim slices wrong: %v %v", i, s.DimVCs, s.DimLinks)
		}
	}
	// Samples are deep copies: mutating one must not affect a re-read.
	samples[0].DimVCs[0] = 99
	if again := c.Samples(nil); again[0].DimVCs[0] == 99 {
		t.Error("Samples returned aliased per-dim slices")
	}
}

func TestCollectorRingOverwritesOldest(t *testing.T) {
	c, _ := meteredCollector(t, 1, 4100) // 4100 samples into the 4096-slot ring
	samples := c.Samples(nil)
	if len(samples) != ringSize {
		t.Fatalf("got %d samples, want ring size %d", len(samples), ringSize)
	}
	for i, s := range samples {
		if want := int64(i + 4); s.Cycle != want {
			t.Fatalf("sample %d at cycle %d, want %d (oldest-first)", i, s.Cycle, want)
		}
	}
}

func TestSeriesJSONLRoundTrip(t *testing.T) {
	c, _ := meteredCollector(t, 50, 300)
	var b strings.Builder
	if err := c.WriteSeriesJSONL(&b); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSeries(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	orig := c.Samples(nil)
	if len(decoded) != len(orig) {
		t.Fatalf("decoded %d samples, want %d", len(decoded), len(orig))
	}
	for i := range orig {
		if decoded[i].Cycle != orig[i].Cycle ||
			decoded[i].Delivered != orig[i].Delivered ||
			decoded[i].Queued != orig[i].Queued ||
			len(decoded[i].DimVCs) != len(orig[i].DimVCs) {
			t.Fatalf("sample %d mismatch: %+v vs %+v", i, decoded[i], orig[i])
		}
	}
}

func TestDecodeSeriesReportsLinePosition(t *testing.T) {
	in := `{"cycle":0}
{"cycle":50}
not json
`
	_, err := DecodeSeries(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want mention of line 3", err)
	}
}

func TestSeriesCSVHeader(t *testing.T) {
	c, _ := meteredCollector(t, 100, 200)
	var b strings.Builder
	if err := c.WriteSeriesCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 { // header + 2 samples
		t.Fatalf("got %d CSV lines, want 3:\n%s", len(lines), b.String())
	}
	header := strings.Split(lines[0], ",")
	wantCols := len(sampleKeys) + 2*2 // fixed fields + dimVCs0..1 + dimLinks0..1
	if len(header) != wantCols {
		t.Fatalf("header has %d columns, want %d: %v", len(header), wantCols, header)
	}
	if header[0] != "cycle" || header[len(header)-1] != "dimLinks1" {
		t.Fatalf("unexpected header: %v", header)
	}
	for _, row := range lines[1:] {
		if got := len(strings.Split(row, ",")); got != wantCols {
			t.Fatalf("row has %d columns, want %d: %s", got, wantCols, row)
		}
	}
}

func TestSnapshot(t *testing.T) {
	c, _ := meteredCollector(t, 100, 250)
	st := c.Snapshot()
	if st.Detector != "test" {
		t.Errorf("Detector = %q", st.Detector)
	}
	if st.Window != 100 {
		t.Errorf("Window = %d", st.Window)
	}
	if st.Cycles != 250 {
		t.Errorf("Cycles = %d", st.Cycles)
	}
	if st.Samples != 3 {
		t.Errorf("Samples = %d", st.Samples)
	}
	if st.Last == nil || st.Last.Cycle != 200 {
		t.Errorf("Last = %+v, want cycle 200", st.Last)
	}
	if st.Counters["wormnet_messages_delivered_total"] != 250 {
		t.Errorf("delivered counter = %d", st.Counters["wormnet_messages_delivered_total"])
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.ObserveLatency(1)
	c.ObserveDetectDelay(1)
	c.ObserveDetectLatency(1)
	c.EndCycle(0, &stats.Counters{Delivered: 1}, 5, nil)
	c.SetClassVCs(1, 2, 3)
	c.Attach("x", 3)
	if c.Window() != 0 || c.Value(MDelivered) != 0 ||
		c.SampleCount() != 0 || c.Samples(nil) != nil {
		t.Error("nil collector accessors returned non-zero values")
	}
	if err := c.WriteSeriesJSONL(nil); err != nil {
		t.Error(err)
	}
	if err := c.WritePrometheus(nil); err != nil {
		t.Error(err)
	}
	st := c.Snapshot()
	if st.Detector != "" || st.Samples != 0 {
		t.Errorf("nil Snapshot = %+v", st)
	}
}
