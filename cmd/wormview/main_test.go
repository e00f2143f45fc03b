package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the command in a child process: with
// WORMVIEW_MAIN set, the test binary is wormview itself, so exit codes,
// stdout and the stdin spool's clean-up are those of the real program.
func TestMain(m *testing.M) {
	if os.Getenv("WORMVIEW_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	cexTrace   = "../../internal/mc/testdata/liveness-cex-3x3-none.jsonl"
	cexReport  = "../../internal/forensics/testdata/liveness-cex-3x3-none.incidents.jsonl"
	seed11     = "../../internal/forensics/testdata/seed11-3x3.incidents.jsonl"
	seriesFile = "../../internal/metrics/testdata/ndm-4x4-load2.series.jsonl"
)

// wormview runs the command with args and stdin, in a child whose TMPDIR is
// tmp, and returns its stdout, stderr and exit code.
func wormview(t *testing.T, tmp string, stdin []byte, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WORMVIEW_MAIN=1", "TMPDIR="+tmp)
	cmd.Stdin = bytes.NewReader(stdin)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestGoldenViews: every view prints, byte for byte, what the three
// commands it replaced printed for the same input and flags. The goldens
// were captured from those commands, run from this directory.
func TestGoldenViews(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"trace-summary", []string{"trace", "-summary", cexTrace}},
		{"trace-msg", []string{"trace", "-msg", "-1", cexTrace}},
		{"trace-kind", []string{"trace", "-kind", "route-fail,oracle-deadlock", cexTrace}},
		{"incidents-cex", []string{"incidents", cexTrace}},
		{"incidents-seed11", []string{"incidents", seed11}},
		{"incidents-seed11-episode1", []string{"incidents", "-episode", "1", seed11}},
		{"metrics-summary", []string{"metrics", "-summary", seriesFile}},
		{"metrics-plot", []string{"metrics", "-plot", "dtFlags", seriesFile}},
		{"metrics-fields", []string{"metrics", "-fields"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, code := wormview(t, t.TempDir(), nil, tc.args...)
			if code != 0 {
				t.Fatalf("wormview %v: exit %d: %s", tc.args, code, stderr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wormview %v: stdout differs from %s.golden\ngot:\n%s", tc.args, tc.golden, got)
			}
		})
	}
}

// TestIncidentsJSONReplaysCounterexample: replaying the committed mcheck
// counterexample gives the committed incident report.
func TestIncidentsJSONReplaysCounterexample(t *testing.T) {
	want, err := os.ReadFile(cexReport)
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, code := wormview(t, t.TempDir(), nil, "incidents", "-json", cexTrace)
	if code != 0 || !bytes.Equal(got, want) {
		t.Errorf("incidents -json: exit %d, stderr %q; stdout equal to %s: %v",
			code, stderr, cexReport, bytes.Equal(got, want))
	}
}

// TestHelpKeepsFlags: each subcommand's -h lists the flags, defaults and
// help text of the command it replaced (the goldens omit the "Usage of"
// line, which names the program).
func TestHelpKeepsFlags(t *testing.T) {
	for _, sub := range []string{"trace", "metrics", "incidents"} {
		want, err := os.ReadFile(filepath.Join("testdata", sub+"-help.golden"))
		if err != nil {
			t.Fatal(err)
		}
		_, stderr, code := wormview(t, t.TempDir(), nil, sub, "-h")
		first, rest, _ := bytes.Cut(stderr, []byte("\n"))
		if code != 0 || string(first) != "Usage of wormview "+sub+":" || !bytes.Equal(rest, want) {
			t.Errorf("wormview %s -h: exit %d, output:\n%s", sub, code, stderr)
		}
	}
}

// TestStdinSpoolRemoved: the trace timeline spools stdin to a temporary
// file; it must be gone after every run, failed ones included.
func TestStdinSpoolRemoved(t *testing.T) {
	cex, err := os.ReadFile(cexTrace)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		stdin []byte
		code  int
	}{
		{"garbage", []byte("x\n"), 1},
		{"empty", nil, 1},
		{"no-such-kind", []byte(`{"cycle":0,"kind":"inject","msg":0}` + "\n"), 1},
		{"counterexample", cex, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			args := []string{"trace"}
			if tc.name == "no-such-kind" {
				args = append(args, "-kind", "detect")
			}
			_, stderr, code := wormview(t, tmp, tc.stdin, args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d: %s", code, tc.code, stderr)
			}
			if code != 0 && !strings.HasPrefix(string(stderr), "wormview trace: <stdin>: ") {
				t.Errorf("stderr %q does not name the input", stderr)
			}
			left, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("spool left behind: %s", e.Name())
			}
		})
	}
}

// TestHostileTraceIsRefused: event ids that would index the correlator's
// tables out of range, or grow them without bound, are decode errors that
// name the line — not a panic or an out-of-memory death.
func TestHostileTraceIsRefused(t *testing.T) {
	for _, line := range []string{
		`{"cycle":0,"kind":"inject","msg":-5,"link":3,"node":0,"arg":4,"aux":1}`,
		`{"cycle":0,"kind":"vc-alloc","msg":0,"link":1500000000,"aux":0}`,
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "hostile.jsonl")
		if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, code := wormview(t, dir, nil, "incidents", path)
		if code != 1 || !strings.Contains(string(stderr), path+": trace: line 1 (byte 0): ") {
			t.Errorf("%s: exit %d, stderr %q", line, code, stderr)
		}
	}
}
