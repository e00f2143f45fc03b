package harness

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// parseSweep parses args the way a sweep CLI does: the shared flags, with the
// runs-per-point flag under the given name.
func parseSweep(t *testing.T, repeat string, args ...string) *Sweep {
	t.Helper()
	var s Sweep
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.AddFlags(fs, repeat, map[string]string{"quiet": "reworded"})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if got := fs.Lookup("quiet").Usage; got != "reworded" {
		t.Fatalf("usage override ignored: -quiet says %q", got)
	}
	return &s
}

// TestSweepOptionsValidation exercises, once for all three sweep CLIs, the
// flag combinations that make no sense; every refusal names the flag.
func TestSweepOptionsValidation(t *testing.T) {
	for _, tc := range []struct {
		repeat, want string
		args         []string
	}{
		{"replicates", "-workers must be >= 0", []string{"-workers", "-1"}},
		{"replicates", "-replicates must be >= 1", []string{"-replicates", "0"}},
		{"repeats", "-repeats must be >= 1", []string{"-repeats", "0"}},
		{"replicates", "-resume requires -checkpoint", []string{"-resume"}},
		{"replicates", "-trace-last requires -trace-dir", []string{"-trace-last", "64"}},
		{"replicates", "-series-window requires -series-dir", []string{"-series-window", "100"}},
		{"replicates", "-trace-last must be >= 0, got -3", []string{"-trace-dir", "t", "-trace-last", "-3"}},
		{"replicates", "-series-window must be >= 0, got -7", []string{"-series-dir", "s", "-series-window", "-7"}},
	} {
		_, err := parseSweep(t, tc.repeat, tc.args...).Options()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestSweepOptionsYield: every flag lands in the harness options, including
// all five observation flags.
func TestSweepOptionsYield(t *testing.T) {
	opt, err := parseSweep(t, "repeats",
		"-workers", "3", "-repeats", "2", "-checkpoint", "j.jsonl", "-resume",
		"-trace-dir", "t", "-trace-last", "64", "-series-dir", "s", "-series-window", "100",
		"-forensics-dir", "f").Options()
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Workers: 3, Replicates: 2, Journal: "j.jsonl", Resume: true, Progress: os.Stderr,
		Observe: Observe{TraceDir: "t", TraceLast: 64, SeriesDir: "s", SeriesWindow: 100, ForensicsDir: "f"},
	}
	if opt.Workers != want.Workers || opt.Replicates != want.Replicates || opt.Journal != want.Journal ||
		opt.Resume != want.Resume || opt.Progress != want.Progress || opt.Observe != want.Observe {
		t.Errorf("Options() = %+v, want %+v", opt, want)
	}
	if quiet, err := parseSweep(t, "repeats", "-quiet").Options(); err != nil || quiet.Progress != nil {
		t.Errorf("-quiet: progress writer %v, err %v; want none", quiet.Progress, err)
	}
}
