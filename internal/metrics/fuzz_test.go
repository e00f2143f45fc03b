package metrics

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// FuzzDecodeSeries feeds arbitrary bytes to DecodeSeries: it may refuse
// them, but never panic or allocate more than the line buffer plus a fixed
// multiple of the input (a decoded sample is a few hundred bytes, its
// shortest line three).
func FuzzDecodeSeries(f *testing.F) {
	series, err := os.ReadFile("testdata/ndm-4x4-load2.series.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	// Two samples of the committed series: small enough to mutate and
	// minimize quickly.
	first := bytes.IndexByte(series, '\n') + 1
	f.Add(series[:first+bytes.IndexByte(series[first:], '\n')+1])
	f.Add([]byte("{}\n\n{\"cycle\":-1,\"dimVCs\":[1,2]}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		samples, err := DecodeSeries(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil && samples != nil {
			t.Fatalf("DecodeSeries returned %d samples with error %v", len(samples), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20+1024*uint64(len(data)) {
			t.Fatalf("DecodeSeries allocated %d bytes for %d bytes of input", n, len(data))
		}
	})
}
