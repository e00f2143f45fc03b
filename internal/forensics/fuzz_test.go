package forensics_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"wormnet/internal/forensics"
)

// FuzzIncidents feeds arbitrary bytes to DecodeEpisodes. It may refuse them,
// but never panic or allocate more than a fixed multiple of the input; what
// it accepts must be written exactly as json.Marshal writes each episode and
// survive a second decode unchanged.
func FuzzIncidents(f *testing.F) {
	// The committed reports' episodes under 1 KB each: big enough to hold
	// every field, small enough to mutate and minimize quickly.
	for _, path := range []string{
		"testdata/seed11-3x3.incidents.jsonl",
		"testdata/liveness-cex-3x3-none.incidents.jsonl",
	} {
		report, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(report, []byte("\n")) {
			if len(line) > 0 && len(line) < 1024 {
				f.Add(line)
			}
		}
	}
	f.Add([]byte("{}\n\r\n{\"id\":-1,\"marks\":[{\"chain\":[{}]}]}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		episodes, err := forensics.DecodeEpisodes(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+1024*uint64(len(data)) {
			t.Fatalf("DecodeEpisodes allocated %d bytes for %d bytes of input", n, len(data))
		}
		if err != nil {
			return
		}
		var once, twice, marshaled bytes.Buffer
		if err := forensics.WriteJSONL(&once, episodes); err != nil {
			t.Fatal(err)
		}
		for _, ep := range episodes {
			line, err := json.Marshal(ep)
			if err != nil {
				t.Fatal(err)
			}
			marshaled.Write(line)
			marshaled.WriteByte('\n')
		}
		if !bytes.Equal(once.Bytes(), marshaled.Bytes()) {
			t.Fatalf("WriteJSONL differs from json.Marshal:\n%s\nvs\n%s", once.Bytes(), marshaled.Bytes())
		}
		again, err := forensics.DecodeEpisodes(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding a written report: %v", err)
		}
		if err := forensics.WriteJSONL(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("report changed on a second round trip:\n%s\nvs\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
