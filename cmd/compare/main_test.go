package main

import (
	"flag"
	"io"
	"slices"
	"testing"

	"wormnet/internal/harness"
)

// TestFileModeRejectsEverySharedFlag: file mode only loads two JSON tables,
// so it must refuse each flag the shared sweep helpers register — including
// ones added to them later. (The hand-kept name list this replaces had
// missed -forensics-dir.)
func TestFileModeRejectsEverySharedFlag(t *testing.T) {
	newSet := func() *flag.FlagSet {
		fs := flag.NewFlagSet("compare", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Bool("run", false, "")
		fs.Bool("detlat", false, "")
		new(harness.Sweep).AddFlags(fs, "replicates", nil)
		return fs
	}
	var shared []string
	newSet().VisitAll(func(f *flag.Flag) {
		if f.Name != "run" && f.Name != "detlat" {
			shared = append(shared, f.Name)
		}
	})
	if !slices.Contains(shared, "forensics-dir") || len(shared) < 10 {
		t.Fatalf("shared flags = %v, want the five sweep and five observation flags", shared)
	}
	for _, name := range shared {
		fs := newSet()
		// "1" parses as every flag type in the set.
		if err := fs.Parse([]string{"-" + name + "=1", "-run=false"}); err != nil {
			t.Fatal(err)
		}
		if got := misused(fs, notInFileMode); !slices.Equal(got, []string{"-" + name}) {
			t.Errorf("-%s set in file mode: misuse = %v, want it alone reported", name, got)
		}
	}
	if got := misused(newSet(), notInFileMode); len(got) != 0 {
		t.Errorf("no flags set: misuse = %v", got)
	}
}
