package exp

import (
	"bytes"
	"strings"
	"testing"

	"wormnet/internal/spec"
)

// fakeResult builds a Result with uniform Pct values per threshold row.
func fakeResult(t *testing.T, mech Mechanism, rowPcts []float64) *Result {
	t.Helper()
	tbl, _ := PaperTable(2)
	tbl.Mechanism = mech
	tbl.Thresholds = []int64{2, 4}
	tbl.Sizes = []Size{SizeS, SizeL}
	r := &Result{Table: tbl, Rates: []float64{0.4, 0.6}}
	for ti := range tbl.Thresholds {
		row := make([][]Cell, len(r.Rates))
		for ri := range r.Rates {
			row[ri] = []Cell{{Pct: rowPcts[ti]}, {Pct: rowPcts[ti] * 2}}
		}
		r.Cells = append(r.Cells, row)
	}
	return r
}

func TestCompareReport(t *testing.T) {
	pdm := fakeResult(t, MechPDM, []float64{10, 5})
	ndm := fakeResult(t, MechNDM, []float64{1, 0.5})
	var buf bytes.Buffer
	if err := CompareReport(&buf, pdm, ndm); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Th 2", "Th 4", "10.0x", "mean saturated-cell improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// NDM all-zero rows render the ratio as ">inf".
	zero := fakeResult(t, MechNDM, []float64{0, 0})
	buf.Reset()
	if err := CompareReport(&buf, pdm, zero); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ">inf") {
		t.Errorf("unbounded ratio missing:\n%s", buf.String())
	}
}

func TestCompareReportShapeMismatch(t *testing.T) {
	pdm := fakeResult(t, MechPDM, []float64{1, 1})
	ndm := fakeResult(t, MechNDM, []float64{1, 1})
	ndm.Rates = ndm.Rates[:1]
	if err := CompareReport(&bytes.Buffer{}, pdm, ndm); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
}

// TestFormatGolden pins the exact table rendering (the paper-style layout
// consumed by EXPERIMENTS.md and the results/ files).
func TestFormatGolden(t *testing.T) {
	tbl, _ := PaperTable(2)
	tbl.Thresholds = []int64{2, 32}
	tbl.Sizes = []Size{SizeS, SizeL}
	r := &Result{
		Table:   tbl,
		Options: Options{Run: spec.Run{K: 4, N: 2}},
		Rates:   []float64{0.3, 0.6},
		Cells: [][][]Cell{
			{{{Pct: 0.055}, {Pct: 1.08}}, {{Pct: 26.0, TrueDeadlock: true}, {Pct: 0}}},
			{{{Pct: 0}, {Pct: 0.005}}, {{Pct: 0.84}, {Pct: 100}}},
		},
	}
	var buf bytes.Buffer
	r.Format(&buf)
	// Normalize trailing spaces (the header pads column groups).
	normalize := func(s string) string {
		lines := strings.Split(s, "\n")
		for i := range lines {
			lines[i] = strings.TrimRight(lines[i], " ")
		}
		return strings.Join(lines, "\n")
	}
	want := `Table 2. Percentage of messages detected as possibly deadlocked (NDM, uniform traffic, 4-ary 2-cube).
(*) marks cells in which actual deadlocks were detected.

        |      0.3      |   0.6 (sat)
M. Size |      s|      l|      s|      l
----------------------------------------
Th 2    |   .055|   1.08|  26.0*|   .000
Th 32   |   .000|   .005|   .840|    100
`
	if got := normalize(buf.String()); got != normalize(want) {
		t.Errorf("format changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestLengthSensitivity(t *testing.T) {
	r := fakeResult(t, MechNDM, []float64{1, 0.05})
	// Column "s" has pcts {1, 0.05}; column "l" twice that.
	sens := LengthSensitivity(r, 0.1)
	if sens["s"] != 4 {
		t.Errorf("s threshold = %d, want 4", sens["s"])
	}
	if sens["l"] != 4 { // column l holds {2, 0.1}; 0.1 <= 0.1 at Th 4
		t.Errorf("l threshold = %d, want 4", sens["l"])
	}
	strict := LengthSensitivity(r, 0.09)
	if strict["l"] != -1 {
		t.Errorf("strict l threshold = %d, want -1 (never below target)", strict["l"])
	}
}
