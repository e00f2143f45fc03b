package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
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
