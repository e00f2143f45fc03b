package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/forensics"
	"wormnet/internal/probe"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/snap"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// gateCycles is the length N of every equivalence-gate run: the snapshot is
// taken at N/2, inside the measurement window that opens at N/4.
const gateCycles = 480

type gateCase struct {
	name string
	cfg  Config
	// pieces is the number of pieces the second half of the run is cut
	// into, each run on an engine freshly restored from the previous piece's
	// snapshot. The case name carries it as "shards<pieces>", a label kept
	// from when this axis was the engine's worker count so that the test IDs
	// stay stable.
	pieces int
}

// gateCases is the equivalence gate's matrix: every detector family and one
// timeout × a 3-VC fabric near saturation and a deadlocking 1-VC storm with
// the oracle every cycle × both recovery styles × the second half in one
// piece and in four, Debug audits on. Every name ends in "/bernoulli", the
// injection process, a label kept from when a second process was on this
// axis so that the test IDs stay stable.
func gateCases() []gateCase {
	mechs := []struct {
		name string
		det  DetectorFactory
	}{
		{"ndm", func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) }},
		{"pdm", func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 24) }},
		{"cmh", func(f *router.Fabric) detect.Detector { return probe.New(f, probe.Config{InitDelay: 8, MaxHops: 64}) }},
		{"hdr-block", func(*router.Fabric) detect.Detector { return detect.NewHeaderBlockTimeout(24) }},
	}
	loads := []struct {
		name string
		mod  func(*Config)
	}{
		{"sat3vc", func(c *Config) { c.Load = 0.9 }},
		{"storm1vc", func(c *Config) {
			c.Router.VCsPerLink = 1
			c.Load = 2.0
			c.InjectionLimit = -1
			c.OracleEvery = 1
		}},
	}
	var cases []gateCase
	for _, mech := range mechs {
		for _, load := range loads {
			for _, rec := range []recovery.Style{recovery.Progressive, recovery.Regressive} {
				for _, pieces := range []int{1, 4} {
					cfg := smallConfig() // 4x4, Debug on
					cfg.Warmup, cfg.Measure = gateCycles/4, gateCycles-gateCycles/4
					cfg.Detector = mech.det
					cfg.Recovery = rec
					load.mod(&cfg)
					cases = append(cases, gateCase{
						name:   fmt.Sprintf("%s/%s/%s/shards%d/bernoulli", mech.name, load.name, rec, pieces),
						cfg:    cfg,
						pieces: pieces,
					})
				}
			}
		}
	}
	return cases
}

// gateRails is one run's observation: a streaming recorder with the online
// episode correlator on it.
type gateRails struct {
	rec  *trace.Recorder
	cor  *forensics.Correlator
	sink bytes.Buffer
}

func newGateRails() *gateRails {
	g := &gateRails{cor: forensics.New(forensics.Options{})}
	g.rec = trace.NewRecorder(64)
	g.rec.SetSink(&g.sink)
	g.rec.SetObserver(g.cor.Observe)
	return g
}

// report ends observation and returns the incident report.
func (g *gateRails) report(t *testing.T) []byte {
	t.Helper()
	if err := g.rec.Flush(); err != nil {
		t.Fatal(err)
	}
	g.cor.Finish()
	var buf bytes.Buffer
	if err := g.cor.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sameResult compares counters and all three histograms.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Counters != want.Counters {
		t.Errorf("%s: counters diverge\n got %+v\nwant %+v", what, got.Counters, want.Counters)
	}
	for _, h := range []struct {
		name      string
		got, want any
	}{
		{"latency", got.LatencyHist, want.LatencyHist},
		{"detect delay", got.DetectDelayHist, want.DetectDelayHist},
		{"detect latency", got.DetectLatencyHist, want.DetectLatencyHist},
	} {
		g, _ := json.Marshal(h.got)
		w, _ := json.Marshal(h.want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s histogram diverges\n got %s\nwant %s", what, h.name, g, w)
		}
	}
}

// TestSnapshotEquivalence is the equivalence gate: running N cycles must be
// indistinguishable from running N/2, taking a Snapshot, restoring it into a
// freshly built engine and running the other N/2 there — in one piece, or in
// several, each on a fresh engine restored from the last one's snapshot —
// same counters, same histograms, same trace bytes and same online incident
// report (the rails carry over by handing every engine the same recorder). On
// the way it checks that a snapshot of a freshly restored engine equals the
// bytes it was restored from, and that the first engine, stepped on into a future that is
// then abandoned, is brought back by the same bytes (the model checker's
// pattern) to finish with the same result and the same second-half trace.
func TestSnapshotEquivalence(t *testing.T) {
	cases := gateCases()
	if testing.Short() {
		cases = cases[:len(cases)/4]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: N cycles straight through.
			ref := newGateRails()
			cfg := tc.cfg
			cfg.Trace = ref.rec
			want, err := mustNew(t, cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			wantReport := ref.report(t)
			wantTrace := ref.sink.Bytes()

			// N/2, snapshot, restore into a fresh engine, N/2.
			rails := newGateRails()
			cfg.Trace = rails.rec
			first := mustNew(t, cfg)
			stepN(t, first, gateCycles/2)
			if err := rails.rec.Flush(); err != nil {
				t.Fatal(err)
			}
			half := rails.sink.Len()
			if half == 0 || half >= len(wantTrace) {
				t.Fatalf("first half wrote %d of %d trace bytes: the snapshot point splits nothing", half, len(wantTrace))
			}
			snapBytes := first.Snapshot(nil)

			var second *Engine
			for piece, b := 0, snapBytes; piece < tc.pieces; piece++ {
				if piece > 0 {
					stepN(t, second, gateCycles/2/tc.pieces)
					b = second.Snapshot(nil)
				}
				second = mustNew(t, cfg)
				if err := second.Restore(b); err != nil {
					t.Fatal(err)
				}
				if again := second.Snapshot(nil); !bytes.Equal(again, b) {
					t.Errorf("piece %d: snapshot of the restored engine differs from the bytes it was restored from (%d vs %d bytes)", piece, len(again), len(b))
				}
			}
			got, err := second.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "restored into a fresh engine", got, want)
			gotReport := rails.report(t)
			if gotTrace := rails.sink.Bytes(); !bytes.Equal(gotTrace[half:], wantTrace[half:]) {
				t.Errorf("second-half trace bytes diverge (%d vs %d bytes)", len(gotTrace)-half, len(wantTrace)-half)
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("incident reports diverge (%d vs %d bytes)", len(gotReport), len(wantReport))
			}

			// The same engine, brought back from an abandoned future. Its
			// correlator has seen that future, so it is detached and the
			// recorder pointed at a sink of its own for the second half.
			stepN(t, first, gateCycles/4)
			if err := first.Restore(snapBytes); err != nil {
				t.Fatal(err)
			}
			var backTrace bytes.Buffer
			rails.rec.SetObserver(nil)
			rails.rec.SetSink(&backTrace)
			back, err := first.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := rails.rec.Flush(); err != nil {
				t.Fatal(err)
			}
			sameResult(t, "restored to an earlier cycle of the same engine", back, want)
			if !bytes.Equal(backTrace.Bytes(), wantTrace[half:]) {
				t.Errorf("restored to an earlier cycle of the same engine: second-half trace bytes diverge (%d vs %d bytes)",
					backTrace.Len(), len(wantTrace)-half)
			}
		})
	}
}

// TestRestoreTraps pins, one subtest each, the ways a plausible Restore goes
// wrong on an engine that has already run past the snapshot. (The order CMH
// writes its dedupe keys in is pinned in internal/probe.)
func TestRestoreTraps(t *testing.T) {
	const early, late = 120, 300

	// A cycle's scratch — the transmitted links, the used crossbar inputs,
	// whether the oracle has run, CMH's per-link probe budget — is not in the
	// snapshot, and Restore leaves an engine's own as it is: the next Step
	// rewrites each before reading it. So an engine taken back from a future
	// it ran must step on exactly as a fresh engine restored from the same
	// bytes: the same trace, the same counters and the same next snapshot.
	// Threshold 32 lets the storm deadlock by cycle 240, where the snapshot is
	// taken, so the oracle has a set to find; CMH runs steal-idle, the
	// transport that reads the transmitted links.
	t.Run("ran-ahead engine steps like a fresh restore", func(t *testing.T) {
		for _, leg := range []struct {
			name string
			det  DetectorFactory
		}{
			{"ndm", func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 32) }},
			{"cmh-steal-idle", func(f *router.Fabric) detect.Detector {
				return probe.New(f, probe.Config{InitDelay: 32, MaxHops: 64, Transport: probe.TransportStealIdle})
			}},
		} {
			t.Run(leg.name, func(t *testing.T) {
				cfg := stormConfig()
				cfg.Detector = leg.det
				var aheadTrace, freshTrace bytes.Buffer
				ahead, aheadRec := tracedEngine(t, cfg, &aheadTrace)
				stepN(t, ahead, 240)
				snapBytes := ahead.Snapshot(nil)
				stepN(t, ahead, 160)
				if err := ahead.Restore(snapBytes); err != nil {
					t.Fatal(err)
				}
				if err := aheadRec.Flush(); err != nil {
					t.Fatal(err)
				}
				aheadTrace.Reset()
				fresh, freshRec := tracedEngine(t, cfg, &freshTrace)
				if err := fresh.Restore(snapBytes); err != nil {
					t.Fatal(err)
				}
				restored := *fresh.Stats()
				for round := 1; round <= 3; round++ {
					stepN(t, ahead, 40)
					stepN(t, fresh, 40)
					if err := aheadRec.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := freshRec.Flush(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(aheadTrace.Bytes(), freshTrace.Bytes()) {
						t.Fatalf("round %d: trace of the ran-ahead engine (%d bytes) differs from a fresh restore's (%d bytes)", round, aheadTrace.Len(), freshTrace.Len())
					}
					if got, want := *ahead.Stats(), *fresh.Stats(); got != want {
						t.Fatalf("round %d: counters diverge\n got %+v\nwant %+v", round, got, want)
					}
					if !bytes.Equal(ahead.Snapshot(nil), fresh.Snapshot(nil)) {
						t.Fatalf("round %d: the ran-ahead engine and a fresh restore snapshot differently", round)
					}
				}
				if st := fresh.Stats(); st.DeadlockCycles == restored.DeadlockCycles || st.Marked == restored.Marked {
					t.Fatal("no deadlock seen or no message marked after the restore: nothing to get wrong")
				}
			})
		}
	})

	// inputUsed[in] means "this input already sent a flit this cycle";
	// transferCommit clears it as it applies each move, so it is empty
	// between cycles. Taken back to cycle 120, the engine must not meet an
	// input the run it abandoned (cycles 120..299) left marked, and must step
	// on as a fresh restore of the same bytes does, one cycle at a time.
	t.Run("crossbar stamps of the abandoned future", func(t *testing.T) {
		e := mustNew(t, stormConfig())
		stepN(t, e, early)
		snapBytes := e.Snapshot(nil)
		stepN(t, e, late-early)
		if err := e.Restore(snapBytes); err != nil {
			t.Fatal(err)
		}
		for in, used := range e.inputUsed {
			if used {
				t.Fatalf("input link %d is marked used at cycle %d", in, e.now)
			}
		}
		fresh := mustNew(t, stormConfig())
		if err := fresh.Restore(snapBytes); err != nil {
			t.Fatal(err)
		}
		for range 50 { // Debug audits every cycle
			stepN(t, e, 1)
			stepN(t, fresh, 1)
			if !slices.Equal(e.txLinks, fresh.txLinks) {
				t.Fatalf("cycle %d: transmitted links differ from a fresh restore's", e.now)
			}
			if !bytes.Equal(e.Snapshot(nil), fresh.Snapshot(nil)) {
				t.Fatalf("cycle %d: the engine brought back and a fresh restore diverged", e.now)
			}
		}
	})

	// The oracle keeps its wait-for graph between evaluations, checked
	// against router stamps that a Restore bumps rather than brings back:
	// the graph must be rebuilt, or the restored engine is served the
	// abandoned run's deadlocked set.
	t.Run("oracle cache", func(t *testing.T) {
		// Snapshot inside a deadlock, run on until the set has changed.
		e := mustNew(t, stormConfig())
		for e.oracleSize == 0 {
			if stepN(t, e, 1); e.now > 5000 {
				t.Fatal("the storm never deadlocked")
			}
		}
		snapBytes := e.Snapshot(nil)
		inside := slices.Clone(e.oracle.Deadlocked())
		for slices.Equal(e.oracle.Deadlocked(), inside) {
			stepN(t, e, 1)
		}
		stale := slices.Clone(e.oracle.Deadlocked()) // cached and valid for the abandoned cycle
		if err := e.Restore(snapBytes); err != nil {
			t.Fatal(err)
		}
		fresh := mustNew(t, stormConfig())
		if err := fresh.Restore(snapBytes); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(fresh.oracle.Deadlocked())
		got := e.oracle.Deadlocked()
		if !slices.Equal(got, want) {
			t.Fatalf("deadlocked set after Restore %v, a fresh engine restored from the same bytes computes %v", got, want)
		}
		if slices.Equal(stale, want) {
			t.Fatal("the abandoned cycle has the snapshot's deadlocked set: nothing to get wrong")
		}
		if err := e.oracle.CrossCheck(); err != nil {
			t.Fatal(err)
		}
	})

	// Messages pooled after the snapshot must be gone again, the free list
	// back in its order and the surviving entries at their addresses, or the
	// next MsgIDs handed out differ from the snapshotted run's.
	t.Run("message pool", func(t *testing.T) {
		e := mustNew(t, stormConfig())
		stepN(t, e, 12)
		snapBytes := e.Snapshot(nil)
		pool := e.fab.NumMessages()
		addrs := make([]*router.Message, pool)
		for id := range addrs {
			addrs[id] = e.fab.Msg(router.MsgID(id))
		}
		stepN(t, e, late)
		if e.fab.NumMessages() <= pool {
			t.Fatalf("the pool did not grow past %d entries: nothing to get wrong", pool)
		}
		if err := e.Restore(snapBytes); err != nil {
			t.Fatal(err)
		}
		if got := e.fab.NumMessages(); got != pool {
			t.Fatalf("pool holds %d entries after Restore, %d when snapshotted", got, pool)
		}
		for id, m := range addrs {
			if e.fab.Msg(router.MsgID(id)) != m {
				t.Fatalf("message %d moved", id)
			}
		}
		if again := e.Snapshot(nil); !bytes.Equal(again, snapBytes) {
			t.Fatal("snapshot after Restore differs from the bytes restored")
		}
		fresh := mustNew(t, stormConfig())
		if err := fresh.Restore(snapBytes); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			stepN(t, e, 1)
			stepN(t, fresh, 1)
			if a, b := e.Snapshot(nil), fresh.Snapshot(nil); !bytes.Equal(a, b) {
				t.Fatalf("cycle %d: the engine brought back and a fresh engine restored from the same bytes diverged", e.now)
			}
		}
	})
}

// TestSnapshotWritesReadingsOnceTaken: the window's readings base and end are
// in a snapshot only once taken, and Restore brings an absent one back to what
// New leaves, also into an engine that has taken both — by decode and, the
// second time, from the restore copy. The reference for each cycle is an
// engine run straight there.
func TestSnapshotWritesReadingsOnceTaken(t *testing.T) {
	cfg := stormConfig()
	cfg.Warmup, cfg.Measure = 50, 100
	src := mustNew(t, cfg)
	cycles := []int64{30, 100, 200} // neither taken, base taken, both taken
	var snaps [][]byte
	for _, at := range cycles {
		stepN(t, src, int(at-src.now))
		snaps = append(snaps, src.Snapshot(nil))
	}
	for i, at := range cycles {
		ref := mustNew(t, cfg)
		stepN(t, ref, int(at))
		for pass, e := range []*Engine{mustNew(t, cfg), src, src} {
			if err := e.Restore(snaps[i]); err != nil {
				t.Fatal(err)
			}
			if e.base != ref.base || e.end != ref.end {
				t.Errorf("cycle %d, restore %d: base/end differ from an engine run straight there\n got %+v\n     %+v\nwant %+v\n     %+v",
					at, pass, e.base, e.end, ref.base, ref.end)
			}
		}
	}
	if len(snaps[1]) >= len(snaps[2]) || src.base == src.end {
		t.Fatal("the readings taken later add nothing to the snapshot: nothing to get wrong")
	}
}

// TestRestoreRefusesInconsistentState: a snapshot whose lists contradict its
// messages — here taken from an engine corrupted in memory just before
// Snapshot — is refused with an error naming the contradiction. (The
// fabric's own refusals are tabled in internal/router, the detectors' in
// internal/detect and internal/probe.)
func TestRestoreRefusesInconsistentState(t *testing.T) {
	inNetwork := func(e *Engine) router.MsgID {
		for _, id := range e.pending {
			if e.fab.Msg(id).Phase == router.PhaseNetwork {
				return id
			}
		}
		panic("no pending header in the network")
	}
	cases := []struct {
		name    string
		corrupt func(e *Engine)
		want    string
	}{
		{"message in the network also queued", func(e *Engine) { e.queuePush(3, inNetwork(e)) }, "queues message"},
		{"queued message on no queue", func(e *Engine) {
			for node := range e.queues {
				if e.queues[node].Len() > 0 {
					e.queues[node].Pop()
					return
				}
			}
		}, "are waiting at a source"},
		{"header pending twice", func(e *Engine) { e.pendingNew = append(e.pendingNew, e.pending[0]) }, "pending twice"},
		{"injecting through no port", func(e *Engine) {
			for _, id := range e.injecting {
				if m := e.fab.Msg(id); m.Injected < m.Length {
					m.InjLink = router.NilLink
					return
				}
			}
			panic("nothing injecting")
		}, "not an injection port"},
		{"arrival scheduled in the past", func(e *Engine) { e.genDue[5] = e.now - 1 }, "before cycle"},
		{"absorbing a message that is not recovering", func(e *Engine) {
			m := e.fab.Msg(inNetwork(e))
			m.Phase = router.PhaseRecovering
		}, "are recovering"},
		// The oracle's set is drawn from the message pool; 2^40 would be
		// reported through ProbeMetrics as its int32 truncation, 0.
		{"oracle set of 2^40 messages", func(e *Engine) { e.oracleSize = 1 << 40 }, "deadlocked messages, of"},
		{"oracle set one larger than the pool", func(e *Engine) { e.oracleSize = e.fab.NumMessages() + 1 }, "deadlocked messages, of"},
	}
	for _, tc := range cases {
		cfg := stormConfig()
		cfg.Debug = false // the corrupted engine is snapshotted, never stepped
		src := mustNew(t, cfg)
		stepN(t, src, 300)
		tc.corrupt(src)
		err := mustNew(t, cfg).Restore(src.Snapshot(nil))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotWarmBufferAllocationFree pins that Snapshot into a buffer with
// enough capacity allocates nothing, for every detector family (CMH writes
// its dedupe windows through a reused key buffer).
func TestSnapshotWarmBufferAllocationFree(t *testing.T) {
	for _, mech := range []string{"ndm", "pdm", "cmh"} {
		det, err := Mechanism{Name: mech, Threshold: 8, T1: 1, Probe: probe.Config{MaxHops: 64}}.Factory()
		if err != nil {
			t.Fatal(err)
		}
		cfg := stormConfig()
		cfg.Debug = false
		cfg.Detector = det
		e := mustNew(t, cfg)
		stepN(t, e, 400)
		buf := e.Snapshot(nil)
		if allocs := testing.AllocsPerRun(20, func() { buf = e.Snapshot(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: Snapshot into a warm buffer allocates %.0f times", mech, allocs)
		}
	}
}

// firstChooser resolves every decision to its first option.
type firstChooser struct{}

func (firstChooser) Choose(ChoicePoint, int) int { return 0 }

// TestRestoreRefusesForeignBytes covers the header: truncation anywhere,
// another magic or version, and a snapshot of an engine that differs in any
// one fingerprinted setting.
func TestRestoreRefusesForeignBytes(t *testing.T) {
	base := func() Config {
		cfg := stormConfig()
		cfg.Measure = 100_000
		return cfg
	}
	e := mustNew(t, base())
	stepN(t, e, 300)
	good := e.Snapshot(nil)

	target := mustNew(t, base())
	for _, n := range []int{0, 3, 7, 12, 40, len(good) / 2, len(good) - 1} {
		if err := target.Restore(good[:n]); err == nil {
			t.Errorf("Restore accepted the first %d of %d bytes", n, len(good))
		}
	}
	if err := target.Restore(append(bytes.Clone(good), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("Restore of a snapshot with a trailing byte: %v", err)
	}
	bad := bytes.Clone(good)
	bad[0] ^= 0xff
	if err := target.Restore(bad); err == nil || !strings.Contains(err.Error(), "not an engine snapshot") {
		t.Errorf("wrong magic: %v", err)
	}
	bad = bytes.Clone(good)
	bad[4]++
	if err := target.Restore(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: %v", err)
	}
	// A version 1 header — the sharded engine's format, whose fingerprint
	// named a worker count — is refused on its version.
	v1id := strings.Replace(string(e.fingerprint()), " routing=", " shards=1 routing=", 1)
	v1 := snap.U32(append([]byte(snapMagic), 1, 0, 0, 0), uint32(len(v1id)))
	v1 = append(append(v1, v1id...), good[12+len(e.fingerprint()):]...)
	if err := target.Restore(v1); err == nil || !strings.Contains(err.Error(), "snapshot format version 1,") {
		t.Errorf("version 1 header: %v", err)
	}
	// So are a version 2 header, the format whose fabric section ended in
	// the set of failed links, a version 3 header, the format that kept
	// the measured window's counters and the probe and absorption totals
	// already charged, and a version 4 header, the format that kept the
	// transmitted links and the cycle the oracle last ran.
	for _, v := range []uint32{2, 3, 4} {
		old := bytes.Clone(good)
		snap.PutU32(old, 4, v)
		if err := target.Restore(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("snapshot format version %d,", v)) {
			t.Errorf("version %d header: %v", v, err)
		}
	}
	if err := target.Restore(good); err != nil {
		t.Fatalf("the untouched snapshot no longer restores: %v", err)
	}

	differ := map[string]func(*Config){
		"k":            func(c *Config) { c.K = 5 },
		"n":            func(c *Config) { c.K, c.N = 2, 4 },
		"vcs":          func(c *Config) { c.Router.VCsPerLink = 2 },
		"buf":          func(c *Config) { c.Router.BufFlits = 2 },
		"inj":          func(c *Config) { c.Router.InjPorts = 2 },
		"del":          func(c *Config) { c.Router.DelPorts = 2 },
		"routing":      func(c *Config) { c.Routing, c.Detector = routing.DimensionOrder{}, nil; c.Router.VCsPerLink = 2 },
		"detector":     func(c *Config) { c.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 17) } },
		"process":      func(c *Config) { c.Lengths = traffic.Fixed(8) },
		"load":         func(c *Config) { c.Load = 1.5 },
		"recovery":     func(c *Config) { c.Recovery = recovery.Regressive },
		"inject-limit": func(c *Config) { c.InjectionLimit = 3 },
		"max-queue":    func(c *Config) { c.MaxSourceQueue = 8 },
		"warmup":       func(c *Config) { c.Warmup = 10 },
		"measure":      func(c *Config) { c.Measure = 50_000 },
		"oracle-every": func(c *Config) { c.OracleEvery = 2 },
		"seed":         func(c *Config) { c.Seed = 2 },
		"retain":       func(c *Config) { c.RetainMessages = true },
		"chooser":      func(c *Config) { c.Chooser = firstChooser{} },
	}
	for field, mod := range differ {
		cfg := base()
		mod(&cfg)
		other := mustNew(t, cfg)
		err := other.Restore(good)
		if err == nil || !strings.Contains(err.Error(), "another configuration") {
			t.Errorf("engine differing in %s accepted the snapshot: %v", field, err)
		}
	}
	// Every setting named in the fingerprint has a case above.
	for _, kv := range strings.Fields(string(e.fingerprint())) {
		name, _, _ := strings.Cut(kv, "=")
		if _, ok := differ[name]; !ok {
			t.Errorf("fingerprint field %q has no differing-configuration case", name)
		}
	}
}

// TestFingerprintTellsHotFractions builds two hot-spot runs that differ only
// in the hot fraction, by less than a whole percent: their fingerprints must
// differ, or a snapshot of one restores into the other (and a sweep journal
// of one resumes against the other) without a word.
func TestFingerprintTellsHotFractions(t *testing.T) {
	fingerprint := func(frac float64) string {
		cfg := smallConfig()
		cfg.Pattern = func(tp *topology.Torus) traffic.Pattern { return traffic.NewHotSpot(tp, 0, frac) }
		id, err := Fingerprint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a, b := fingerprint(0.05), fingerprint(0.054)
	if a == b {
		t.Fatalf("hot fractions 0.05 and 0.054 share the fingerprint %q", a)
	}
	if !strings.Contains(a, "hot-spot(5%@0)") {
		t.Errorf("fingerprint %q does not name the 5%% hot spot", a)
	}
}
