package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// fuzzConfigs are the engines FuzzRestore restores into, selected by the
// input's first byte: a deadlocking 3x3 single-VC storm under each detector
// family, and a 3-VC bursty run under regressive recovery. Small fabrics and
// short queues keep a snapshot — and so a corpus file — to a few kilobytes.
var fuzzConfigs = []func() Config{
	func() Config {
		return fuzzStorm(func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) })
	},
	func() Config {
		return fuzzStorm(func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 24) })
	},
	func() Config {
		return fuzzStorm(func(f *router.Fabric) detect.Detector { return probe.New(f, probe.Config{InitDelay: 8}) })
	},
	func() Config {
		cfg := fuzzStorm(func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) })
		cfg.Router.VCsPerLink = 3
		cfg.Recovery = recovery.Regressive
		cfg.Process = func(tp *topology.Torus) traffic.Process {
			return traffic.NewBursty(tp, traffic.NewUniform(tp), traffic.Fixed(8), 1.2, 4, 20)
		}
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

// FuzzRestore feeds Restore mutated snapshots. Whatever the bytes, Restore
// returns — an error, or nil with an engine every Debug audit accepts and that
// then steps, audited every cycle, without a panic — and allocates no more
// than a small multiple of the input's length.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00WSNP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e, err := New(fuzzConfigs[int(data[0])%len(fuzzConfigs)]())
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
		for _, audit := range []func() error{e.fab.CheckInvariants, e.oracle.CrossCheck, e.auditActiveSets, e.auditRouteMemos, e.caps.Audit} {
			if audit == nil {
				continue // CMH has no audit of its own
			}
			if err := audit(); err != nil {
				t.Fatalf("Restore accepted a state its audits refuse: %v", err)
			}
		}
		for i := 0; i < 64; i++ {
			if err := e.Step(); err != nil {
				t.Fatalf("accepted state failed %d cycles on: %v", i, err)
			}
		}
	})
}
