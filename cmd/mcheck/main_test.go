package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run the command in a child process: with
// MCHECK_MAIN set, the test binary is mcheck itself.
func TestMain(m *testing.M) {
	if os.Getenv("MCHECK_MAIN") != "" {
		// A fresh flag set: the child's -h lists the command's flags, not the test binary's.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
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

// TestHelp: -h lists every flag with its default and help text (the golden
// omits the "Usage of" line, which names the program).
func TestHelp(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "MCHECK_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	want, rerr := os.ReadFile("testdata/help.golden")
	if rerr != nil {
		t.Fatal(rerr)
	}
	first, rest, _ := bytes.Cut(stderr.Bytes(), []byte("\n"))
	if err != nil || !bytes.HasPrefix(first, []byte("Usage of ")) || !bytes.Equal(rest, want) {
		t.Errorf("mcheck -h: %v, output:\n%s", err, stderr.Bytes())
	}
}

// TestMisuse: a threshold, VC count or buffer depth below 1 is refused before
// the check starts (mc.Options would otherwise run its own default in place
// of a zero), with exit 2, a message naming the flag and nothing on stdout.
func TestMisuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"threshold0", []string{"-k", "3", "-mech", "ndm", "-threshold", "0"}, "-threshold must be >= 1, got 0"},
		{"vcs0", []string{"-k", "3", "-mech", "ndm", "-vcs", "0"}, "-vcs must be >= 1, got 0"},
		{"buf0", []string{"-k", "3", "-mech", "ndm", "-buf", "0"}, "-buf must be >= 1, got 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "MCHECK_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
				t.Errorf("mcheck %v: %v, stderr %q, stdout %q; want exit 2 naming %q",
					tc.args, err, stderr.String(), stdout.String(), tc.want)
			}
		})
	}
}
