package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the tests run the command in a child process: with
// MCHECK_MAIN set, the test binary is mcheck itself.
func TestMain(m *testing.M) {
	if os.Getenv("MCHECK_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSummaryNamesFabric: the summary line names every dimension of the
// fabric, so a 2-ary 3-cube reads 2x2x2, and a 2-D torus's line is what it
// always was.
func TestSummaryNamesFabric(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k", "2", "-n", "3", "-script", "face", "-mech", "ndm"},
			"mcheck ndm on 2x2x2 (4 msgs, window 0): 6212 states, 7523 interleavings, depth 8, complete; 0 deadlocked states, 0 true marks\n"},
		{[]string{"-k", "3", "-script", "face", "-mech", "ndm", "-min-deadlocks", "1"},
			"mcheck ndm on 3x3 (4 msgs, window 0): 169 states, 184 interleavings, depth 16, complete; 10 deadlocked states, 40 true marks\n"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "MCHECK_MAIN=1")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("mcheck %v: %v", tc.args, err)
		}
		if got := out.String(); got != tc.want {
			t.Errorf("mcheck %v printed\n%q\nwant\n%q", tc.args, got, tc.want)
		}
	}
}
