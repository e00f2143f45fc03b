package sim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"wormnet/internal/sim"
	"wormnet/internal/spec"
	"wormnet/internal/trace"
)

// stormRun is the deadlock-prone fabric of the deadlock64_storm benchmark
// workload: an 8-ary 2-cube with one virtual channel per link, no injection
// limit, twice the saturation load, threshold 32 and the oracle classifying
// every cycle. Seed 3 is one at which the oracle of every storm leg below
// finds a deadlocked message within 2000 cycles.
func stormRun(k int) spec.Run {
	r := spec.Default()
	r.K, r.N = k, 2
	r.VirtualChannels = 1
	r.Load = 2.0
	r.InjectionLimit = -1
	r.Threshold = 32
	r.OracleEvery = 1
	r.Seed = 3
	return r
}

// oracleGateLegs are the storm under every detector family and both recovery
// styles, where the oracle's deadlocked set is non-empty at many cycles, and
// one run under Duato's protocol, where the oracle reads candidates that are
// not every VC of every minimal link.
var oracleGateLegs = []struct {
	name string
	set  func(*spec.Run)
}{
	{"storm-ndm-progressive", func(r *spec.Run) {}},
	{"storm-ndm-regressive", func(r *spec.Run) { r.Recovery = spec.Regressive }},
	{"storm-pdm-progressive", func(r *spec.Run) { r.Mechanism = spec.PDM }},
	{"storm-pdm-regressive", func(r *spec.Run) { r.Mechanism, r.Recovery = spec.PDM, spec.Regressive }},
	{"storm-cmh-progressive", func(r *spec.Run) { r.Mechanism = spec.CMH }},
	{"storm-cmh-regressive", func(r *spec.Run) { r.Mechanism, r.Recovery = spec.CMH, spec.Regressive }},
	{"storm-duato", func(r *spec.Run) {
		r.Mechanism, r.Routing, r.VirtualChannels = spec.NoDetection, spec.Duato, 3
	}},
}

// TestOracleGateGolden holds every oracle verdict of the storm legs to the
// committed bytes: the window counters (oracle runs, deadlock cycles, the
// largest set, true and false marks) and the metrics series as windowRun
// renders them, and the SHA-256 of the whole JSONL trace, which carries every
// oracle-deadlock event and every detection's verdict. Each leg runs with
// Debug on, so the engine also cross-checks the oracle against a from-scratch
// evaluation every cycle.
func TestOracleGateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("seven 2000-cycle storm runs with Debug on")
	}
	for _, leg := range oracleGateLegs {
		t.Run(leg.name, func(t *testing.T) {
			r := stormRun(8)
			r.Warmup, r.Measure = 300, 1200
			leg.set(&r)
			cfg, err := r.SimConfig()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Debug = true
			jsonl := &hashWriter{h: sha256.New()}
			cfg.Trace = trace.NewStreaming(jsonl, 0)
			var sighted int
			cfg.Trace.SetObserver(func(ev trace.Event) {
				if ev.Kind == trace.KindOracleDeadlock {
					sighted++
				}
			})
			got := windowRunConfig(t, cfg, []int64{150, 900, 1800}, 2000)
			if err := cfg.Trace.Flush(); err != nil {
				t.Fatal(err)
			}
			if sighted == 0 && r.Routing != spec.Duato {
				t.Errorf("the oracle never found a deadlocked message: the leg does not gate its fixpoint")
			}
			got = fmt.Appendf(got, "trace sha256 %x (%d bytes)\n", jsonl.h.Sum(nil), jsonl.n)
			path := filepath.Join("testdata", "window", leg.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with go test -run TestOracleGateGolden -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("run output differs from %s:\n%s", path, firstDiff(got, want))
			}
		})
	}
}

// hashWriter hashes and counts what is written to it.
type hashWriter struct {
	h hash.Hash
	n int
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return w.h.Write(p)
}

// TestWarmMatchesCold: the oracle's incremental graph and the CMH prober's
// memos are scratch that only skip work, so an engine that carries them
// from cycle to cycle must behave exactly like one that starts every cycle
// without them. At every cycle of each storm leg on the 4-ary 2-cube, the
// running engine's snapshot is restored into a fresh engine — a cold
// oracle, no memos — and both step one cycle: the trace bytes of the cycle
// and the next snapshots must be equal. Each leg also runs with the oracle
// consulted only at marks (OracleEvery 0, as table and sweep runs do), so
// that the warm oracle repairs many cycles' changes at once.
func TestWarmMatchesCold(t *testing.T) {
	cycles := int64(600)
	if testing.Short() {
		cycles = 150
	}
	for _, leg := range oracleGateLegs[:6] {
		for _, every := range []int64{1, 0} {
			name := leg.name
			if every == 0 {
				name += "-at-marks"
			}
			t.Run(name, func(t *testing.T) {
				r := stormRun(4)
				r.Warmup, r.Measure = 0, 1<<40
				r.OracleEvery = every
				leg.set(&r)
				warmMatchesCold(t, r, cycles)
			})
		}
	}
}

// warmMatchesCold is TestWarmMatchesCold's body for run r.
func warmMatchesCold(t *testing.T, r spec.Run, cycles int64) {
	cfg, err := r.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Debug = true
	engine := func() (*sim.Engine, *trace.Recorder, *bytes.Buffer) {
		var buf bytes.Buffer
		c := cfg
		c.Trace = trace.NewStreaming(&buf, 0)
		e, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		return e, c.Trace, &buf
	}
	stepped := func(e *sim.Engine, tr *trace.Recorder, buf *bytes.Buffer) []byte {
		buf.Reset()
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	warm, warmTr, warmBuf := engine()
	for warm.Now() < cycles {
		snap := warm.Snapshot(nil)
		cold, coldTr, coldBuf := engine()
		if err := cold.Restore(snap); err != nil {
			t.Fatalf("cycle %d: %v", warm.Now(), err)
		}
		now := warm.Now()
		w, c := stepped(warm, warmTr, warmBuf), stepped(cold, coldTr, coldBuf)
		if !bytes.Equal(w, c) {
			t.Fatalf("cycle %d: the warm engine traces\n%s\nthe cold one\n%s", now, w, c)
		}
		if !bytes.Equal(warm.Snapshot(nil), cold.Snapshot(nil)) {
			t.Fatalf("cycle %d: the snapshots after the cycle differ", now)
		}
	}
	st := warm.Stats()
	t.Logf("deadlocked in %d of %d cycles; %d marks, %d true", st.DeadlockCycles, cycles, st.Marked, st.TrueMarked)
}
