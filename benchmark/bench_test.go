package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest pins BENCHMARK.json to the declarations the program emits
// from: regenerate it with `bash benchmark/run.sh manifest > BENCHMARK.json`.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := currentManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the program's declarations:\n got %+v\nwant %+v", onDisk, want)
	}
	seen := map[string]bool{}
	names := workloadNames()
	for _, d := range declared(false) {
		names = append(names, d.Name)
	}
	for _, d := range declared(true) {
		names = append(names, d.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// TestQuickWorkloads runs every workload both ways at -quick sizes and checks
// that each emits exactly the declared names, passes its own output checks,
// and that the digest identities between workloads hold.
func TestQuickWorkloads(t *testing.T) {
	infos := map[string]info{}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := opts{workload: name, seed: 3, seconds: 0.05, trace: traced, quick: true}
			res, inf, err := runWorkload(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d: %v", name, traced, res.Correct, res.Failed, res.Attempted, inf.Problems)
			}
			want := declared(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, m.Value)
				}
			}
			if !traced {
				infos[name] = inf
			}
		}
	}
	if a, b := infos["torus512_sat"].Digest, infos["torus512_sat_shards2"].Digest; a == "" || a != b {
		t.Errorf("torus512_sat digest %q != torus512_sat_shards2 digest %q", a, b)
	}
	if a, b := infos["rails64_observed"].Digest, infos["deadlock64_storm"].Legs["ndm"]; a == "" || a != b {
		t.Errorf("rails64_observed digest %q != deadlock64_storm NDM leg digest %q", a, b)
	}
}

func TestStats(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	// For three values the quartiles are the extremes.
	if q1, q3 := quartiles([]float64{2, 9, 4}); q1 != 2 || q3 != 9 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
	if got := percentile(ten, 0.9); got != 10 {
		t.Errorf("p90 = %v", got)
	}
}

func TestDigest(t *testing.T) {
	type counters struct{ A, B int }
	a, err := digest(counters{1, 2}, "x")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digest(counters{1, 2}, "x")
	c, _ := digest(counters{1, 3}, "x")
	if a != b || a == c {
		t.Errorf("digests %x %x %x: equal inputs must agree and different inputs differ", a, b, c)
	}
}

func TestSelfSeconds(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "harness.Run", StartNS: 0, EndNS: 100e9, Parent: -1},
		{Name: "run", StartNS: 10e9, EndNS: 50e9, Parent: 0},
		{Name: "run", StartNS: 30e9, EndNS: 70e9, Parent: 0}, // overlaps the first
		{Name: "run", StartNS: 80e9, EndNS: 90e9, Parent: 0},
	}}
	if got := tr.selfSeconds()[0]; got != 30 {
		t.Errorf("self time = %v s, want 100 - (10..70) - (80..90) = 30", got)
	}
	sum := tr.layerSummary()
	if len(sum) != 2 || sum[1].Count != 3 || sum[1].TotalS != 90 {
		t.Errorf("layer summary = %+v", sum)
	}
}

// shipped returns the declared end-to-end metric, so the verdicts below are
// tested against the bounds BENCHMARK.json carries.
func shipped(t *testing.T, name string) endToEndDef {
	for _, d := range endToEndMetrics {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return endToEndDef{}
}

func TestVerdict(t *testing.T) {
	rate, setup, mem := shipped(t, "work_per_s"), shipped(t, "setup_s"), shipped(t, "peak_rss_mb")
	// by scales 100 so that it is worse (positive) or better by the share.
	by := func(d endToEndDef, share float64) []float64 {
		if d.Better == higher {
			share = -share
		}
		m := 100 * (1 + share)
		return []float64{m - 1, m, m + 1}
	}
	base := []float64{99, 100, 101}
	noisy := []float64{100 * (1 - rate.Bound), 100, 100 * (1 + rate.Bound)}
	for _, tc := range []struct {
		d    endToEndDef
		a, b []float64
		want string
	}{
		{rate, base, by(rate, 0.01), "ok"},
		{rate, base, by(rate, rate.Bound-0.02), "ok"},
		{rate, base, by(rate, rate.Bound+0.02), "BREACH"},
		{rate, base, by(rate, -0.2), "ok"},
		{rate, noisy, by(rate, 0.05), "unresolved"},
		{rate, noisy, by(rate, -2*rate.Bound), "ok"}, // noisy, but every run is better
		{mem, base, by(mem, mem.Bound+0.02), "BREACH"},
		{mem, base, by(mem, mem.Bound-0.02), "ok"},
		{mem, base, by(mem, -0.2), "ok"},
		{setup, base, by(setup, setup.Bound+0.02), "BREACH"},
		// Twice as slow, but by less than setupFloorS seconds.
		{setup, []float64{0.0100, 0.0101, 0.0102}, []float64{0.0200, 0.0201, 0.0202}, "ok"},
		{setup, []float64{1.00, 1.01, 1.02}, []float64{2.00, 2.01, 2.02}, "BREACH"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		sf := suiteFile{Reps: 3, Attempted: 10, Workloads: []suiteRow{{
			Workload: "torus512_sat", Digest: "abc",
			EndToEnd: map[string][]float64{
				"work_per_s": {rate, rate + 1, rate + 2}, "setup_s": {1, 1, 1}, "peak_rss_mb": {13, 13, 13},
			},
		}}}
		b, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, same, slow := write("a.json", 3800), write("b.json", 3790), write("c.json", 1900)
	var out bytes.Buffer
	if code := compareMain([]string{parent, same}, &out); code != 0 {
		t.Errorf("A/A compare exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{parent, slow}, &out); code != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("compare against a run half as fast exited %d:\n%s", code, out.String())
	}
}
