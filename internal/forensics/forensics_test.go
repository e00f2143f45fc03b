package forensics_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	wormnet "wormnet"
	"wormnet/internal/forensics"
	"wormnet/internal/trace"
)

// -update regenerates the committed goldens instead of comparing.
var update = flag.Bool("update", false, "rewrite golden incident reports")

// goldenConfig is the fixed-seed 3x3 deadlock run behind the committed
// golden: single-VC saturation with a threshold high enough that real
// cycles persist past oracle confirmation, so the report mixes
// true-deadlock and false-positive episodes.
func goldenConfig() wormnet.Config {
	cfg := wormnet.DefaultConfig()
	cfg.K, cfg.N = 3, 2
	cfg.VirtualChannels = 1
	cfg.Lengths = wormnet.Lengths{Fixed: 16}
	cfg.Load = 2.0
	cfg.Threshold = 48
	cfg.InjectionLimit = -1
	cfg.Warmup, cfg.Measure = 0, 1200
	cfg.Seed = 11
	cfg.OracleEvery = 1
	return cfg
}

// runIncidents executes cfg with forensics attached and returns the raw
// incident-report bytes.
func runIncidents(t *testing.T, cfg wormnet.Config) []byte {
	t.Helper()
	dir := t.TempDir()
	cfg.ForensicsPath = filepath.Join(dir, "incidents.jsonl")
	if _, err := wormnet.Run(cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cfg.ForensicsPath)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run %s -update)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("incident report differs from %s (%d vs %d bytes); regenerate with -update if the change is intended",
			path, len(got), len(want))
	}
}

// TestMCCounterexampleGolden replays the model checker's committed liveness
// counterexample — a true deadlock with detection disabled — through the
// correlator. It must decode as exactly one unresolved true-deadlock
// episode with mechanism "none", a full 4-member formation cycle and no
// marks or victims, and the encoded report must match the committed golden
// byte for byte.
func TestMCCounterexampleGolden(t *testing.T) {
	f, err := os.Open("../mc/testdata/liveness-cex-3x3-none.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eps, err := forensics.Correlate(f, forensics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 1 {
		t.Fatalf("got %d episodes, want 1", len(eps))
	}
	ep := eps[0]
	if ep.Verdict != forensics.VerdictTrueDeadlock || !ep.Unresolved {
		t.Errorf("verdict %q unresolved=%v, want unresolved true-deadlock", ep.Verdict, ep.Unresolved)
	}
	if ep.Mechanism != "none" {
		t.Errorf("mechanism %q, want none (no detector events in the counterexample)", ep.Mechanism)
	}
	if len(ep.Marks) != 0 || len(ep.Victims) != 0 {
		t.Errorf("got %d marks, %d victims; detection was disabled", len(ep.Marks), len(ep.Victims))
	}
	if len(ep.Formation) == 0 {
		t.Error("no formation cycle reconstructed")
	}
	for _, e := range ep.Formation {
		found := false
		for _, m := range ep.Members {
			if m.Msg == e.Next {
				found = true
			}
		}
		if !found {
			t.Errorf("formation edge points at msg %d, not a member", e.Next)
		}
	}
	var buf bytes.Buffer
	if err := forensics.WriteJSONL(&buf, eps); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/liveness-cex-3x3-none.incidents.jsonl", buf.Bytes())
}

// TestGoldenRunByteIdentity is the report determinism gate: the fixed-seed
// 3x3 deadlock run must produce byte-identical incident reports at every
// shard count — the same contract the trace rails enforce, which the report
// inherits by being a pure function of the trace stream. The serial run is
// additionally held to the committed golden.
func TestGoldenRunByteIdentity(t *testing.T) {
	base := runIncidents(t, goldenConfig())
	checkGolden(t, "testdata/seed11-3x3.incidents.jsonl", base)
	variants := []struct {
		name string
		mod  func(*wormnet.Config)
	}{
		{"shards1", func(c *wormnet.Config) { c.Shards = 1 }},
		{"shards4", func(c *wormnet.Config) { c.Shards = 4 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := goldenConfig()
			v.mod(&cfg)
			if got := runIncidents(t, cfg); !bytes.Equal(got, base) {
				t.Errorf("incident report differs from serial reference (%d vs %d bytes)",
					len(got), len(base))
			}
		})
	}
}

// TestOnlineMatchesOfflineReplay holds the correlator to its central
// promise: feeding the streamed trace back through Correlate reproduces
// the online observer's report byte for byte (the JSONL trace encoding is
// lossless, so offline replay sees the identical event sequence).
func TestOnlineMatchesOfflineReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig()
	cfg.TracePath = filepath.Join(dir, "events.jsonl")
	cfg.ForensicsPath = filepath.Join(dir, "incidents.jsonl")
	if _, err := wormnet.Run(cfg); err != nil {
		t.Fatal(err)
	}
	online, err := os.ReadFile(cfg.ForensicsPath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := os.Open(cfg.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	eps, err := forensics.Correlate(tr, forensics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forensics.WriteJSONL(&buf, eps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(online, buf.Bytes()) {
		t.Errorf("offline replay differs from online report (%d vs %d bytes)",
			len(buf.Bytes()), len(online))
	}
}

// TestEveryOracleSightingHasEpisode checks episode coverage on the golden
// run: every oracle-deadlock sighting in the trace lands in exactly one
// episode's member list, every oracle-confirmed episode carries a
// non-empty formation cycle whose edges stay within the member set, and
// false-positive episodes carry no members.
func TestEveryOracleSightingHasEpisode(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig()
	cfg.TracePath = filepath.Join(dir, "events.jsonl")
	cfg.ForensicsPath = filepath.Join(dir, "incidents.jsonl")
	if _, err := wormnet.Run(cfg); err != nil {
		t.Fatal(err)
	}
	tr, err := os.Open(cfg.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sightings := 0
	if err := trace.Scan(tr, func(ev trace.Event) error {
		if ev.Kind == trace.KindOracleDeadlock {
			sightings++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sightings == 0 {
		t.Fatal("golden run produced no oracle sightings; config no longer deadlocks")
	}
	f, err := os.Open(cfg.ForensicsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eps, err := forensics.DecodeEpisodes(f)
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, ep := range eps {
		members += len(ep.Members)
		switch ep.Verdict {
		case forensics.VerdictTrueDeadlock:
			if len(ep.Members) == 0 {
				t.Errorf("episode %d: true-deadlock with no members", ep.ID)
			}
			if len(ep.Formation) == 0 {
				t.Errorf("episode %d: oracle-confirmed but no formation cycle", ep.ID)
			}
			inMembers := map[int32]bool{}
			for _, m := range ep.Members {
				inMembers[m.Msg] = true
			}
			for _, e := range ep.Formation {
				if !inMembers[e.Msg] || !inMembers[e.Next] {
					t.Errorf("episode %d: formation edge %d->%d leaves the member set", ep.ID, e.Msg, e.Next)
				}
			}
		case forensics.VerdictFalsePositive:
			if len(ep.Members) != 0 {
				t.Errorf("episode %d: false-positive with %d members", ep.ID, len(ep.Members))
			}
		default:
			t.Errorf("episode %d: unknown verdict %q", ep.ID, ep.Verdict)
		}
	}
	if members != sightings {
		t.Errorf("%d oracle sightings but %d episode members; each sighting must land in exactly one episode",
			sightings, members)
	}
}

// TestShardedObserverUnderRace exists for the CI -race job: the online
// observer runs on the engine's serial commit spine, so a sharded traced
// run with a correlator attached must be data-race free.
func TestShardedObserverUnderRace(t *testing.T) {
	cfg := goldenConfig()
	cfg.K = 4 // 16 nodes so 4 shards get distinct slices
	cfg.Shards = 4
	cfg.Measure = 600
	if got := runIncidents(t, cfg); len(got) == 0 {
		t.Error("sharded forensics run produced an empty report file")
	}
}

// TestNilSafety: a nil correlator ignores everything, and an empty report
// round-trips.
func TestNilSafety(t *testing.T) {
	var c *forensics.Correlator
	c.Observe(trace.Event{Kind: trace.KindDetect})
	c.Finish()
	if eps := c.Episodes(); eps != nil {
		t.Errorf("nil correlator returned episodes: %v", eps)
	}
	if err := c.WriteReport(os.NewFile(0, "discard")); err != nil {
		t.Errorf("nil WriteReport: %v", err)
	}
	var buf bytes.Buffer
	if err := forensics.WriteJSONL(&buf, nil); err != nil {
		t.Fatal(err)
	}
	eps, err := forensics.DecodeEpisodes(&buf)
	if err != nil || len(eps) != 0 {
		t.Errorf("empty roundtrip: %v, %d episodes", err, len(eps))
	}
}

// TestReportRoundTrip: encode -> decode preserves every field the golden
// exercises.
func TestReportRoundTrip(t *testing.T) {
	f, err := os.Open("../mc/testdata/liveness-cex-3x3-none.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eps, err := forensics.Correlate(f, forensics.Options{Mechanism: "forced"})
	if err != nil {
		t.Fatal(err)
	}
	if eps[0].Mechanism != "forced" {
		t.Errorf("Options.Mechanism not honored: %q", eps[0].Mechanism)
	}
	var buf bytes.Buffer
	if err := forensics.WriteJSONL(&buf, eps); err != nil {
		t.Fatal(err)
	}
	got, err := forensics.DecodeEpisodes(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := forensics.WriteJSONL(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("encode -> decode -> encode is not a fixpoint")
	}
}
