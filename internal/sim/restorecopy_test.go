package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"wormnet/internal/trace"
)

// committedRestoreSeeds reads the committed FuzzRestore corpus: every file's
// input, the configuration-selecting byte first.
func committedRestoreSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(restoreCorpus, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzRestore corpus under %s: %v", restoreCorpus, err)
	}
	seeds := make(map[string][]byte)
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		body, ok2 := strings.CutSuffix(body, ")\n")
		if !ok || !ok2 {
			t.Fatalf("%s: not a one-[]byte corpus file", path)
		}
		data, err := strconv.Unquote(body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seeds[filepath.Base(path)] = []byte(data)
	}
	return seeds
}

// tracedEngine builds an engine of cfg streaming its trace into sink.
func tracedEngine(t *testing.T, cfg Config, sink *bytes.Buffer) (*Engine, *trace.Recorder) {
	t.Helper()
	rec := trace.NewStreaming(sink, 16)
	cfg.Trace = rec
	return mustNew(t, cfg), rec
}

// TestRestoreCopyMatchesDecode restores every committed FuzzRestore seed into
// an engine, runs it into a future that is then abandoned, and restores the
// same bytes again — the second time from the restore copy, which every
// Debug audit must accept. A fresh engine decodes the bytes once. Both must
// snapshot to the same bytes, and after 64 more audited cycles each, to the
// same bytes again, having written the same trace and counted the same.
func TestRestoreCopyMatchesDecode(t *testing.T) {
	for name, data := range committedRestoreSeeds(t) {
		t.Run(name, func(t *testing.T) {
			cfg := fuzzConfigs[int(data[0])%len(fuzzConfigs)]()
			src := data[1:]

			var abandoned, copied, decoded bytes.Buffer
			e, rec := tracedEngine(t, cfg, &abandoned)
			if err := e.Restore(src); err != nil {
				t.Fatal(err)
			}
			stepN(t, e, 64)
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			rec.SetSink(&copied)
			if !bytes.Equal(e.saved.src, src) {
				t.Fatal("the engine kept no copy of the bytes it decoded")
			}
			// A future on a larger pool could have stamped a message the
			// restored state never saw: the copy must forget that stamp.
			e.oracleSeen = append(e.oracleSeen, e.now)
			if err := e.Restore(src); err != nil {
				t.Fatal(err)
			}
			if err := e.audit(); err != nil {
				t.Fatalf("the restore copy left a state its audits refuse: %v", err)
			}

			fresh, freshRec := tracedEngine(t, cfg, &decoded)
			if err := fresh.Restore(src); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				if got, want := e.Snapshot(nil), fresh.Snapshot(nil); !bytes.Equal(got, want) {
					t.Fatalf("after %d cycles: the copy snapshots to %d bytes, the decode to %d, and they differ", 64*round, len(got), len(want))
				}
				if got, want := *e.Stats(), *fresh.Stats(); got != want {
					t.Fatalf("after %d cycles: counters diverge\n copy   %+v\n decode %+v", 64*round, got, want)
				}
				if round == 0 {
					stepN(t, e, 64)
					stepN(t, fresh, 64)
				}
			}
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := freshRec.Flush(); err != nil {
				t.Fatal(err)
			}
			if copied.Len() == 0 || !bytes.Equal(copied.Bytes(), decoded.Bytes()) {
				t.Errorf("trace after the copy (%d bytes) differs from the trace after the decode (%d bytes)", copied.Len(), decoded.Len())
			}
		})
	}
}

// TestRestoreCopyTracksItsBytes: a Restore of bytes that differ from the
// copy's in one byte decodes them, and the copy follows; a decode that fails
// drops the copy, so the next Restore decodes; and a Restore of the copy's
// own bytes loads the copy rather than decoding.
func TestRestoreCopyTracksItsBytes(t *testing.T) {
	seeds := committedRestoreSeeds(t)
	data := seeds["gate-0-cycle400"]
	e := mustNew(t, fuzzConfigs[data[0]]())
	src := data[1:]
	if err := e.Restore(src); err != nil {
		t.Fatal(err)
	}

	// The low byte of the measured-cycle counter, the first counter after
	// the cycle number: any value decodes.
	at := len(snapMagic) + 4 + 4 + len(e.fingerprint()) + 8
	changed := bytes.Clone(src)
	changed[at]++
	if err := e.Restore(changed); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot(nil); !bytes.Equal(got, changed) {
		t.Fatal("a one-byte change was restored from the copy of the original bytes")
	}
	if !bytes.Equal(e.saved.src, changed) {
		t.Fatal("the copy does not follow the last decode")
	}

	if err := e.Restore(changed[:len(changed)-1]); err == nil {
		t.Fatal("a truncated snapshot was accepted")
	}
	if len(e.saved.src) != 0 {
		t.Fatal("a failed decode left the copy in place")
	}
	if err := e.Restore(changed); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot(nil); !bytes.Equal(got, changed) {
		t.Fatal("the decode after a failed one restored something else")
	}

	// Plant a cycle number in the copy: only a Restore that loads the copy
	// can bring it back.
	e.saved.now++
	if err := e.Restore(changed); err != nil {
		t.Fatal(err)
	}
	if e.Now() != e.saved.now {
		t.Fatal("restoring the copy's own bytes decoded them again")
	}
}

// TestEngineRestoreCopyClassesEveryField classes every field of Engine by
// what the restore copy does with it: restoreCopy carries it (copied),
// loadCopy recomputes it as the decoder does or has its owner decode its
// section again (rebuilt), New fixes it for good (configuration), or it means
// nothing between two cycles (scratch). A field added without a class fails
// here, so whoever adds one decides which. (router.Fabric's fields are
// classed in its own package.)
func TestEngineRestoreCopyClassesEveryField(t *testing.T) {
	classes := map[string]string{
		"cfg": "configuration", "topo": "configuration", "alg": "configuration",
		"tr": "configuration", "mc": "configuration", "caps": "configuration",
		"chooser": "configuration", "refStage": "configuration", "snapID": "configuration",
		"gen": "configuration", "linkKey": "configuration", "keyLink": "configuration",
		"feedStride": "configuration",

		"fab":     "copied", // router.FabricCopy
		"rnd":     "copied",
		"now":     "copied",
		"st":      "copied",
		"latHist": "copied", "delayHist": "copied", "detLatHist": "copied",
		"base": "copied", "end": "copied",
		"oracleSeen": "copied", "oracleSize": "copied",
		"queues": "copied", "neBits": "copied",
		"pending": "copied", "pendingNew": "copied", "injecting": "copied",
		"nodeRng": "copied", "genDue": "copied", "genHeap": "copied", "inFlight": "copied",

		"det":     "rebuilt", // its section decoded again
		"rec":     "rebuilt", // its section decoded again
		"oracle":  "rebuilt", // invalidated
		"genDefA": "rebuilt", // emptied
		"genDefB": "rebuilt", // emptied

		"measuring": "scratch", "marksThisCycle": "scratch", "oracleRan": "scratch", "keyBits": "scratch",
		"oracleErr": "scratch",
		"txLinks":   "scratch", "inputUsed": "scratch",
		"view": "scratch", "probesInFlight": "scratch", // set before each read
		"moves": "scratch", "feed": "scratch", "feedN": "scratch", "feedErr": "scratch",
		"cands": "scratch", "candBuf": "scratch", "freeCands": "scratch", "arbElig": "scratch",
		"rd": "scratch", "saved": "scratch", "listed": "scratch",
	}
	tp := reflect.TypeOf(Engine{})
	for i := 0; i < tp.NumField(); i++ {
		name := tp.Field(i).Name
		if _, ok := classes[name]; !ok {
			t.Errorf("Engine.%s has no restore-copy class: copy it in saveCopy/loadCopy, rebuild it in loadCopy, or class it configuration or scratch here", name)
		}
		delete(classes, name)
	}
	for name := range classes {
		t.Errorf("class given for Engine.%s, which does not exist", name)
	}
}
