package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the tests run the command in a child process: with
// TABLES_MAIN set, the test binary is tables itself, so exit codes and
// stdout are those of the real program.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tables runs the command with args and returns its stdout, stderr and
// exit code.
func tables(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLES_MAIN=1")
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

// mustRun runs the command, fails the test unless it exits 0, and returns
// its stdout.
func mustRun(t *testing.T, args ...string) []byte {
	t.Helper()
	out, stderr, code := tables(t, args...)
	if code != 0 {
		t.Fatalf("tables %v: exit %d: %s", args, code, stderr)
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDetLatRegeneratesResults: both committed detection-latency results
// come back byte for byte from the commands that wrote them.
func TestDetLatRegeneratesResults(t *testing.T) {
	for _, tc := range []struct {
		result string
		args   []string
	}{
		{"cmh_shootout.txt", []string{"-mechs", "pdm,ndm,cmh", "-k", "4", "-n", "2", "-th", "16", "-measure", "20000"}},
		{"detect_latency.txt", []string{"-k", "4", "-n", "2", "-warmup", "0", "-measure", "5000", "-repeats", "5", "-th", "16", "-seed", "1"}},
	} {
		t.Run(tc.result, func(t *testing.T) {
			got := mustRun(t, append(append([]string{"-detlat"}, tc.args...), "-quiet")...)
			if want := readFile(t, filepath.Join("../../results", tc.result)); !bytes.Equal(got, want) {
				t.Errorf("stdout differs from results/%s\ngot:\n%s", tc.result, got)
			}
		})
	}
}

// TestTableAlone: a run holding only one of Tables 1 and 2 prints that
// table and no comparison report.
func TestTableAlone(t *testing.T) {
	got := mustRun(t, "-table", "2", "-k", "4", "-n", "2", "-relative", "-warmup", "200", "-measure", "1500", "-quiet")
	if want := readFile(t, "testdata/table2-k4n2.golden"); !bytes.Equal(got, want) {
		t.Errorf("stdout differs from table2-k4n2.golden\ngot:\n%s", got)
	}
}

// TestReportMeasuredAndLoaded: with Tables 1 and 2 in hand the text output
// ends with the PDM-vs-NDM report (the golden), whether the tables were
// measured or loaded from the -json output of the same command, one file
// per table or both in one file. The -json output itself is two tables and
// nothing else.
func TestReportMeasuredAndLoaded(t *testing.T) {
	args := []string{"-table", "1,2", "-k", "4", "-n", "2", "-relative", "-warmup", "300", "-measure", "2500", "-quiet"}
	report := readFile(t, "testdata/report-k4n2.golden")
	text := mustRun(t, args...)
	block := text[bytes.Index(text, []byte("PDM vs NDM")):]
	if !bytes.Equal(block, report) {
		t.Errorf("report block differs from report-k4n2.golden\ngot:\n%s", block)
	}
	if !bytes.HasPrefix(text, []byte("Table 1.")) || !bytes.Contains(text, []byte("\nTable 2.")) {
		t.Errorf("tables missing before the report:\n%s", text)
	}

	both := mustRun(t, append(args, "-json")...)
	dir := t.TempDir()
	var files []string
	dec := json.NewDecoder(bytes.NewReader(both))
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("-json output: %v", err)
		}
		files = append(files, filepath.Join(dir, fmt.Sprintf("t%d.json", len(files)+1)))
		if err := os.WriteFile(files[len(files)-1], raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(files) != 2 {
		t.Fatalf("-json output holds %d tables, want 2", len(files))
	}
	bothFile := filepath.Join(dir, "t12.json")
	if err := os.WriteFile(bothFile, both, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]string{files, {bothFile}} {
		if got := mustRun(t, in...); !bytes.Equal(got, text) {
			t.Errorf("tables %v differs from the measured output\ngot:\n%s", in, got)
		}
	}
}

// TestMisuse: each mode refuses, with exit 2 and the flag's name, a flag
// only another mode honors; a malformed saved table is refused with exit 1
// and the file's name instead of a panic.
func TestMisuse(t *testing.T) {
	dir := t.TempDir()
	save := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	noCells := save("nocells.json", `{"table":1,"rates":[0.1,0.2],"thresholds":[2,4],"sizes":["s"],"cells":[]}`)
	noRates := save("norates.json", `{"table":2,"rates":[],"thresholds":[2,4],"sizes":["s"],"cells":[]}`)
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"measure", []string{"-table", "2", "-th", "8"}, 2, "[-th] only apply with -detlat"},
		{"detlat", []string{"-detlat", "-table", "1"}, 2, "[-table] do not apply with -detlat"},
		{"file", []string{"-workers", "2", noCells}, 2, "[-workers] do not apply to saved tables"},
		{"bad-table", []string{"-table", "1,9", "-quiet"}, 2, "no such table 9"},
		{"no-cells", []string{noCells}, 1, noCells + ": exp: table 1 has 2 rates, want the paper's 4"},
		{"no-rates", []string{noRates}, 1, noRates + ": exp: table 2 has 0 rates"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := tables(t, tc.args...)
			if code != tc.code || !strings.Contains(string(stderr), tc.want) || len(stdout) != 0 {
				t.Errorf("tables %v: exit %d, stderr %q, stdout %q; want exit %d naming %q",
					tc.args, code, stderr, stdout, tc.code, tc.want)
			}
		})
	}
}

// TestFileModeRejectsEverySharedFlag: file mode only loads saved tables,
// so it must refuse each flag the command registers — including the ones
// the shared sweep helpers add later, which a hand-kept list would miss.
func TestFileModeRejectsEverySharedFlag(t *testing.T) {
	newSet := func() *flag.FlagSet {
		fs := flag.NewFlagSet("tables", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		addFlags(fs)
		return fs
	}
	var names []string
	newSet().VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if !slices.Contains(names, "forensics-dir") || len(names) < 20 {
		t.Fatalf("flags = %v, want the command's own, the sweep and the observation flags", names)
	}
	fileMode, _ := refusal(false, true)
	for _, name := range names {
		fs := newSet()
		// "1" parses as every flag type in the set.
		if err := fs.Parse([]string{"-" + name + "=1", "t1.json"}); err != nil {
			t.Fatal(err)
		}
		if got := misused(fs, fileMode); !slices.Equal(got, []string{"-" + name}) {
			t.Errorf("-%s set in file mode: misuse = %v, want it alone reported", name, got)
		}
	}
	if got := misused(newSet(), fileMode); len(got) != 0 {
		t.Errorf("no flags set: misuse = %v", got)
	}
}
