package forensics_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
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
// 3x3 deadlock run must produce byte-identical incident reports whatever the
// deprecated, ignored Config.Shards says — the same contract the trace rails
// enforce, which the report inherits by being a pure function of the trace
// stream. The base run is additionally held to the committed golden.
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
				t.Errorf("incident report differs from the base run (%d vs %d bytes)",
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

// TestWriteJSONLStreams holds the report writer to streaming: an episode of
// 100,000 marks, each with a blocking chain, is written without holding its
// line, so the write allocates well under a MiB where json.Marshal would
// allocate several times the line's tens of megabytes.
func TestWriteJSONLStreams(t *testing.T) {
	chain := []forensics.WaitEdge{{Msg: 1, Node: 2, Link: 3, Next: 4}, {Msg: 4, Node: 5, Link: 6, Next: 7}}
	ep := &forensics.Episode{ID: 1, Verdict: forensics.VerdictFalsePositive, Mechanism: "ndm", Marks: make([]forensics.Mark, 100_000)}
	for i := range ep.Marks {
		ep.Marks[i] = forensics.Mark{Cycle: int64(i), Msg: int32(i), Rule: "g2-promotion",
			SinceBlocked: 40, OracleLatency: -1, Chain: chain, ChainEnd: "advancing"}
	}
	var n countingWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := forensics.WriteJSONL(&n, []*forensics.Episode{ep}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("WriteJSONL allocated %d bytes for a %d-byte report, want under 1 MiB", alloc, n)
	}
	if n < 100_000*100 {
		t.Errorf("report is %d bytes, too short for 100,000 marks", n)
	}
	if err := forensics.WriteJSONL(failingWriter{}, []*forensics.Episode{ep}); err == nil {
		t.Error("WriteJSONL dropped its writer's error")
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }

// countingWriter counts the bytes written to it and keeps none.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// TestWriteJSONLEscapesLikeMarshal: strings reach the report escaped exactly
// as encoding/json escapes them, including the invalid UTF-8 that a decoded
// report can never carry.
func TestWriteJSONLEscapesLikeMarshal(t *testing.T) {
	for _, s := range []string{
		"", "ndm", "a<b>&c", `q"b\s`, "\x00\x01\b\f\n\r\t\x1f\x7f", "é\u2028\u2029😀",
		"\xff", "a\xc3", "\xed\xa0\x80z", "\u00e9\xe9",
	} {
		ep := &forensics.Episode{Verdict: s, Mechanism: s, Marks: []forensics.Mark{{Rule: s, ChainEnd: s}}}
		var got bytes.Buffer
		if err := forensics.WriteJSONL(&got, []*forensics.Episode{ep}); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ep)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%q:\n got %s\nwant %s", s, got.Bytes(), want)
		}
	}
}

// TestMarkChainsAreCapped: materialised chains share the correlator's edge
// chunks, so each must be capped at its length: appending to one copies
// instead of overwriting the next mark's chain.
func TestMarkChainsAreCapped(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig()
	cfg.TracePath = filepath.Join(dir, "events.jsonl")
	if _, err := wormnet.Run(cfg); err != nil {
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
	chains := 0
	for _, ep := range eps {
		for i, m := range ep.Marks {
			if cap(m.Chain) != len(m.Chain) {
				t.Fatalf("episode %d mark %d: chain len %d cap %d", ep.ID, i, len(m.Chain), cap(m.Chain))
			}
			if len(m.Chain) > 0 {
				chains++
				_ = append(m.Chain, forensics.WaitEdge{Msg: -7})
			}
		}
	}
	if chains == 0 {
		t.Fatal("golden run has no blocking chains")
	}
	for _, ep := range eps {
		for _, m := range ep.Marks {
			for _, e := range m.Chain {
				if e.Msg == -7 {
					t.Fatal("an append to one chain overwrote another")
				}
			}
		}
	}
}

// TestInjectionLinksAreNotOutputs: a router's out-links are learned from
// route-ok alone. Two headers blocked at node 0, each still feeding its own
// injection buffer there, do not wait on each other: the refuted mark's
// chain follows the worm routed out of node 0, and the formation finds no
// cycle. Learning injection links as outputs chained 1 -> 2 -> 1 over links
// 101 and 100 instead.
func TestInjectionLinksAreNotOutputs(t *testing.T) {
	c := forensics.New(forensics.Options{})
	for _, ev := range []trace.Event{
		{Kind: trace.KindInject, Msg: 1, Link: 100, Node: 0, Arg: 16, Aux: -1},
		{Kind: trace.KindVCAlloc, Msg: 1, Link: 100, Node: -1},
		{Kind: trace.KindInject, Msg: 2, Link: 101, Node: 0, Arg: 16, Aux: -1},
		{Kind: trace.KindVCAlloc, Msg: 2, Link: 101, Node: -1},
		{Kind: trace.KindInject, Msg: 3, Link: 105, Node: 5, Arg: 16, Aux: -1},
		{Kind: trace.KindVCAlloc, Msg: 3, Link: 105, Node: -1},
		{Cycle: 1, Kind: trace.KindRouteOK, Msg: 3, Link: 9, Node: 0, Arg: 7},
		{Cycle: 1, Kind: trace.KindRouteFail, Msg: 1, Link: 100, Node: 0, Arg: 1, Aux: -1},
		{Cycle: 1, Kind: trace.KindRouteFail, Msg: 2, Link: 101, Node: 0, Arg: 1, Aux: -1},
		{Cycle: 40, Kind: trace.KindDetect, Msg: 1, Node: 0, Aux: -1},
		{Cycle: 41, Kind: trace.KindOracleDeadlock, Msg: 1, Node: -1, Arg: 2, Aux: -1},
		{Cycle: 41, Kind: trace.KindOracleDeadlock, Msg: 2, Node: -1, Arg: 2, Aux: -1},
	} {
		c.Observe(ev)
	}
	c.Finish()
	eps := c.Episodes()
	if len(eps) != 1 || len(eps[0].Marks) != 1 {
		t.Fatalf("want one episode with one mark, got %+v", eps)
	}
	mk := eps[0].Marks[0]
	want := []forensics.WaitEdge{{Msg: 1, Node: 0, Link: 7, Next: 3}}
	if len(mk.Chain) != 1 || mk.Chain[0] != want[0] || mk.ChainEnd != "advancing" {
		t.Errorf("chain %+v ending %q, want %+v ending advancing", mk.Chain, mk.ChainEnd, want)
	}
	if f := eps[0].Formation; len(f) != 0 {
		t.Errorf("formation %+v runs through injection links", f)
	}
}
