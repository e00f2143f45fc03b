package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"wormnet/internal/forensics"
	"wormnet/internal/trace"
)

// maxTableBytes bounds what the episode correlator may allocate for tables
// indexed by ids up to trace.MaxID, whatever the trace's size.
// TestTraceAtMaxID's trace, which grows every table to MaxID, allocates
// about 650 MiB, growth garbage included.
const maxTableBytes = 1 << 30

// FuzzTraceScan feeds arbitrary bytes to trace.Scan and then to the offline
// episode correlator. Either may refuse the input, with the same verdict;
// neither may panic, pass on an id outside [-1, trace.MaxID], or allocate
// more than a fixed table budget plus a multiple of the input. The committed
// corpus holds the two traces that once crashed the correlator.
func FuzzTraceScan(f *testing.F) {
	cex, err := os.ReadFile("../mc/testdata/liveness-cex-3x3-none.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	// The counterexample's first line of each kind: every kind it holds, in
	// a seed small enough to mutate and minimize quickly.
	var kinds []byte
	seen := map[string]bool{}
	for _, line := range bytes.SplitAfter(cex, []byte("\n")) {
		var ev struct{ Kind string }
		if json.Unmarshal(line, &ev) == nil && !seen[ev.Kind] {
			seen[ev.Kind] = true
			kinds = append(kinds, line...)
		}
	}
	f.Add(kinds)
	f.Add(cex[:bytes.IndexByte(cex, '\n')+1])
	f.Fuzz(checkTrace)
}

// TestTraceAtMaxID: a trace that grows every table the correlator keeps to
// trace.MaxID stays within the budget FuzzTraceScan holds. (It is a test
// rather than a seed because each run takes most of a second.)
func TestTraceAtMaxID(t *testing.T) {
	checkTrace(t, []byte(strings.ReplaceAll(`{"cycle":0,"kind":"inject","msg":M,"link":M,"node":M,"arg":4}
{"cycle":1,"kind":"route-ok","msg":0,"link":M,"node":M,"arg":M,"aux":M}
{"cycle":2,"kind":"g-set","link":M,"node":M,"arg":2,"aux":M}
{"cycle":3,"kind":"probe-return","msg":0,"link":M,"node":M,"arg":3,"aux":M}
`, "M", strconv.Itoa(trace.MaxID))))
}

// checkTrace is the property FuzzTraceScan holds every input to.
func checkTrace(t *testing.T, data []byte) {
	scanErr := trace.Scan(bytes.NewReader(data), func(ev trace.Event) error {
		for _, id := range []int64{int64(ev.Msg), int64(ev.Link), int64(ev.Node), int64(ev.Aux)} {
			if id < -1 || id > trace.MaxID {
				t.Fatalf("Scan passed %+v", ev)
			}
		}
		return nil
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, corrErr := forensics.Correlate(bytes.NewReader(data), forensics.Options{})
	runtime.ReadMemStats(&after)
	if (scanErr == nil) != (corrErr == nil) {
		t.Fatalf("Scan err %v, Correlate err %v", scanErr, corrErr)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > maxTableBytes+1024*uint64(len(data)) {
		t.Fatalf("Correlate allocated %d bytes for a %d-byte trace", n, len(data))
	}
}
