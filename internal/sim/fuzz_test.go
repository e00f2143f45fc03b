package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/traffic"
)

// fuzzConfigs are the engines FuzzRestore restores into, selected by the
// input's first byte: a deadlocking 3x3 single-VC storm under each detector
// family, and a 3-VC storm under regressive recovery. Small fabrics and
// short queues keep a snapshot — and so a corpus file — to a few kilobytes.
var fuzzConfigs = []func() Config{
	func() Config {
		return fuzzStorm(func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) })
	},
	func() Config {
		return fuzzStorm(func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 24) })
	},
	func() Config {
		return fuzzStorm(func(f *router.Fabric) detect.Detector { return probe.New(f, probe.Config{InitDelay: 8, MaxHops: 64}) })
	},
	func() Config {
		cfg := fuzzStorm(func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) })
		cfg.Router.VCsPerLink = 3
		cfg.Recovery = recovery.Regressive
		return cfg
	},
}

func fuzzStorm(det DetectorFactory) Config {
	cfg := stormConfig() // Debug on, oracle every cycle, window open from cycle 0
	cfg.K, cfg.N = 3, 2
	cfg.Router.InjPorts, cfg.Router.DelPorts = 2, 2
	cfg.Lengths = traffic.Fixed(8)
	cfg.MaxSourceQueue = 2
	cfg.Detector = det
	return cfg
}

// fuzzSeeds builds the corpus: every configuration snapshotted early and in
// the thick of its storm, behind the byte that selects the configuration.
func fuzzSeeds(t testing.TB) map[string][]byte {
	seeds := make(map[string][]byte)
	for i, mk := range fuzzConfigs {
		e, err := New(mk())
		if err != nil {
			t.Fatal(err)
		}
		for _, cycles := range []int{40, 400} {
			for e.now < int64(cycles) {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			seeds[fmt.Sprintf("gate-%d-cycle%d", i, cycles)] = e.Snapshot([]byte{byte(i)})
		}
	}
	return seeds
}

// cmhGate is the fuzzConfigs entry that runs the CMH prober.
const cmhGate = 2

// repeatedWindowKeySeed is a FuzzRestore input: the CMH configuration's
// snapshot at cycle 400, behind its selector byte, with the first key of the
// detector's first non-empty dedupe window written twice. That is an encoding
// probe.Detector.Snapshot never writes, so Restore must refuse it
// (TestRestoreRefusesRepeatedWindowKey), and the fuzzer mutates from it
// toward the other non-canonical shapes. The detector section is located by
// its length prefix and walked in the probe snapshot layout: probes, blocked
// initiators, pending marks, then the windows.
func repeatedWindowKeySeed(t testing.TB) []byte {
	e, err := New(fuzzConfigs[cmhGate]())
	if err != nil {
		t.Fatal(err)
	}
	for e.now < 400 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	full := e.Snapshot([]byte{cmhGate})
	det := e.caps.Snapshot(nil)
	at := bytes.Index(full, append(snap.U32(nil, uint32(len(det))), det...))
	if at < 0 {
		t.Fatal("the CMH detector section is not in the engine snapshot")
	}
	const probeBytes = 5*4 + 2*8
	r := snap.NewReader(det)
	r.Bytes(int(r.U32()) * probeBytes)
	r.Bytes(int(r.U32()) * 4)
	r.Bytes(int(r.U32()) * 4)
	for n := r.U32(); n > 0 && r.Err() == nil; n-- {
		r.Bytes(4 + 8)
		countAt := r.Offset()
		keys := r.U32()
		if keys == 0 {
			continue
		}
		key := r.Bytes(8)
		bad := append(bytes.Clone(det[:countAt]), snap.U32(nil, keys+1)...)
		bad = append(append(bad, det[countAt+4:r.Offset()]...), key...)
		bad = append(bad, det[r.Offset():]...)
		out := append(bytes.Clone(full[:at]), snap.U32(nil, uint32(len(bad)))...)
		out = append(out, bad...)
		return append(out, full[at+4+len(det):]...)
	}
	t.Fatalf("the CMH detector has no dedupe window with a key (%v)", r.Err())
	return nil
}

// TestRestoreRefusesRepeatedWindowKey: the FuzzRestore seed with a repeated
// dedupe-window key is refused, naming the window.
func TestRestoreRefusesRepeatedWindowKey(t *testing.T) {
	seed := repeatedWindowKeySeed(t)
	e, err := New(fuzzConfigs[cmhGate]())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(seed[1:]); err == nil || !strings.Contains(err.Error(), "dedupe window") {
		t.Fatalf("Restore of a repeated window key: %v, want a refusal naming the dedupe window", err)
	}
}

const restoreCorpus = "testdata/fuzz/FuzzRestore"

var updateRestoreCorpus = flag.Bool("update-restore-corpus", false, "rewrite "+restoreCorpus+" from the current encoding")

// TestRestoreCorpusIsCurrent keeps the committed FuzzRestore corpus equal to
// what the current encoding produces: a stale seed is refused at its header
// and the fuzzer would start from nothing. After a format or fingerprint
// change, regenerate with `make fuzz-restore-seeds`.
func TestRestoreCorpusIsCurrent(t *testing.T) {
	for name, seed := range fuzzSeeds(t) {
		path := filepath.Join(restoreCorpus, name)
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed))
		if *updateRestoreCorpus {
			if err := os.MkdirAll(restoreCorpus, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with `make fuzz-restore-seeds`)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: regenerate with `make fuzz-restore-seeds`", path)
		}
	}
}

// audit runs every Debug audit Step runs between cycles.
func (e *Engine) audit() error {
	for _, audit := range []func() error{e.fab.CheckInvariants, e.oracle.CrossCheck, e.auditActiveSets, e.auditRouteMemos, e.caps.Audit} {
		if audit == nil {
			continue // CMH has no audit of its own
		}
		if err := audit(); err != nil {
			return err
		}
	}
	return nil
}

// FuzzRestore feeds Restore mutated snapshots. Whatever the bytes, Restore
// returns — an error, or nil with an engine every Debug audit accepts and that
// then steps, audited every cycle, without a panic — and allocates no more
// than a small multiple of the input's length. Accepted bytes are then
// restored again, which loads the restore copy: the engine must snapshot to
// what a fresh engine that decoded them snapshots to, and still after 64 more
// cycles on each.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00WSNP"))
	f.Add(repeatedWindowKeySeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := fuzzConfigs[int(data[0])%len(fuzzConfigs)]
		e, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = e.Restore(data[1:])
		runtime.ReadMemStats(&after)
		// TotalAlloc is process-wide; the slack covers the fuzzing engine's
		// own goroutines.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("Restore of %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if err := e.audit(); err != nil {
			t.Fatalf("Restore accepted a state its audits refuse: %v", err)
		}
		for i := 0; i < 64; i++ {
			if err := e.Step(); err != nil {
				t.Fatalf("accepted state failed %d cycles on: %v", i, err)
			}
		}

		if err := e.Restore(data[1:]); err != nil {
			t.Fatalf("accepted bytes refused the second time: %v", err)
		}
		if err := e.audit(); err != nil {
			t.Fatalf("the restore copy left a state its audits refuse: %v", err)
		}
		fresh, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(data[1:]); err != nil {
			t.Fatalf("accepted bytes refused by a fresh engine: %v", err)
		}
		for round := 0; ; round++ {
			if got, want := e.Snapshot(nil), fresh.Snapshot(nil); !bytes.Equal(got, want) {
				t.Fatalf("after %d cycles: the restore copy snapshots to %d bytes, a decode to %d, and they differ", 64*round, len(got), len(want))
			}
			if round == 1 {
				break
			}
			for i := 0; i < 64; i++ {
				if err, ferr := e.Step(), fresh.Step(); err != nil || ferr != nil {
					t.Fatalf("cycle %d after restoring: from the copy %v, from a decode %v", i, err, ferr)
				}
			}
		}
	})
}
