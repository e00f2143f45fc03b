package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the command in a child process: with
// WORMSIM_MAIN set, the test binary is wormsim itself.
func TestMain(m *testing.M) {
	if os.Getenv("WORMSIM_MAIN") != "" {
		// A fresh flag set: the child's -h lists the command's flags, not the test binary's.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestHelp: -h lists every flag with its default and help text (the golden
// omits the "Usage of" line, which names the program).
func TestHelp(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "WORMSIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	want, rerr := os.ReadFile("testdata/help.golden")
	if rerr != nil {
		t.Fatal(rerr)
	}
	first, rest, _ := bytes.Cut(stderr.Bytes(), []byte("\n"))
	if err != nil || !bytes.HasPrefix(first, []byte("Usage of ")) || !bytes.Equal(rest, want) {
		t.Errorf("wormsim -h: %v, output:\n%s", err, stderr.Bytes())
	}
}

// TestNegativeRailSizesRefused: a negative rail size exits 2 naming its
// flag; each once ran as the default (or, for -observe, as a plain run).
func TestNegativeRailSizesRefused(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"-metrics-window must be >= 0, got -5", []string{"-metrics-window", "-5", "-series", filepath.Join(dir, "s.jsonl")}},
		{"-trace-last must be >= 0, got -5", []string{"-trace", filepath.Join(dir, "t.jsonl"), "-trace-last", "-5"}},
		{"-observe must be >= 0, got -5", []string{"-observe", "-5"}},
	} {
		cmd := exec.Command(os.Args[0], append(tc.args, "-k", "4", "-n", "2", "-warmup", "0", "-measure", "100")...)
		cmd.Env = append(os.Environ(), "WORMSIM_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("wormsim %v: %v, stderr %q; want exit 2 saying %q", tc.args, err, stderr.String(), tc.want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused runs left %d files", len(entries))
	}
}
