package exp

import (
	"bytes"
	"strings"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/topology"
)

func TestPaperTablesSpec(t *testing.T) {
	tbls := PaperTables()
	if len(tbls) != 8 {
		t.Fatalf("%d tables, want 8 (paper's 1-7 plus the CMH extension)", len(tbls))
	}
	for i, tbl := range tbls {
		if tbl.ID != i+1 {
			t.Errorf("table %d has ID %d", i, tbl.ID)
		}
		if len(tbl.Rates) != 4 {
			t.Errorf("table %d has %d rates", tbl.ID, len(tbl.Rates))
		}
		for j := 1; j < len(tbl.Rates); j++ {
			if tbl.Rates[j] <= tbl.Rates[j-1] {
				t.Errorf("table %d rates not increasing", tbl.ID)
			}
		}
		if tbl.Pattern == nil {
			t.Errorf("table %d missing pattern", tbl.ID)
		}
		if len(tbl.Thresholds) == 0 || tbl.Thresholds[0] != 2 {
			t.Errorf("table %d thresholds start at %v", tbl.ID, tbl.Thresholds)
		}
	}
	if tbls[0].Mechanism != MechPDM {
		t.Error("table 1 must use PDM")
	}
	for _, tbl := range tbls[1:7] {
		if tbl.Mechanism != MechNDM {
			t.Errorf("table %d must use NDM", tbl.ID)
		}
	}
	if tbls[7].Mechanism != MechCMH {
		t.Error("table 8 must use CMH")
	}
	// Table 8 mirrors Table 2's grid so the mechanisms compare cell for cell.
	if tbls[7].PatternName != tbls[1].PatternName ||
		len(tbls[7].Thresholds) != len(tbls[1].Thresholds) {
		t.Error("table 8 must mirror table 2's uniform grid")
	}
	// Tables 1, 2 and 8 carry all four sizes; tables 3-7 three.
	if len(tbls[0].Sizes) != 4 || len(tbls[1].Sizes) != 4 || len(tbls[7].Sizes) != 4 {
		t.Error("tables 1-2 and 8 must have 4 size columns")
	}
	for _, tbl := range tbls[2:7] {
		if len(tbl.Sizes) != 3 {
			t.Errorf("table %d has %d sizes, want 3", tbl.ID, len(tbl.Sizes))
		}
	}
}

func TestPaperTableLookup(t *testing.T) {
	tbl, err := PaperTable(4)
	if err != nil || tbl.ID != 4 {
		t.Fatalf("PaperTable(4) = %v, %v", tbl.ID, err)
	}
	if tbl, err := PaperTable(8); err != nil || tbl.Mechanism != MechCMH {
		t.Fatalf("PaperTable(8) = %v, %v; want the CMH extension table", tbl.Mechanism, err)
	}
	if _, err := PaperTable(9); err == nil {
		t.Fatal("table 9 found")
	}
}

func TestRunTinyTable(t *testing.T) {
	tbl, _ := PaperTable(2)
	// Shrink the sweep for test speed: two thresholds, one size.
	tbl.Thresholds = []int64{4, 32}
	tbl.Sizes = []Size{SizeS}
	tbl.Rates = []float64{0.3, 0.6}
	opt := DefaultOptions()
	opt.K, opt.N = 4, 2
	opt.Warmup, opt.Measure = 300, 1500
	var calls int
	opt.Progress = func(done, total int) {
		calls++
		if total != 4 {
			t.Errorf("total = %d", total)
		}
	}
	res, err := Run(tbl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Errorf("progress calls = %d", calls)
	}
	if len(res.Cells) != 2 || len(res.Cells[0]) != 2 || len(res.Cells[0][0]) != 1 {
		t.Fatalf("cell shape wrong")
	}
	for ti := range res.Cells {
		for ri := range res.Cells[ti] {
			c := res.Cells[ti][ri][0]
			if c.Delivered == 0 {
				t.Errorf("cell %d/%d delivered nothing", ti, ri)
			}
			if c.Pct < 0 || c.Pct > 100 {
				t.Errorf("cell pct %v out of range", c.Pct)
			}
		}
	}
	var buf bytes.Buffer
	res.Format(&buf)
	out := buf.String()
	for _, want := range []string{"Table 2", "NDM", "uniform", "Th 4", "Th 32", "(sat)"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestRunRelativeRates(t *testing.T) {
	tbl, _ := PaperTable(2)
	tbl.Thresholds = []int64{32}
	tbl.Sizes = []Size{SizeS}
	opt := DefaultOptions()
	opt.K, opt.N = 4, 2
	opt.Warmup, opt.Measure = 300, 2000
	opt.RelativeRates = true
	res, err := Run(tbl, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The rescaled top rate equals the measured saturation (not the
	// paper's 0.6 for the 512-node network).
	top := res.Rates[len(res.Rates)-1]
	if top == tbl.Rates[len(tbl.Rates)-1] {
		t.Error("relative mode did not rescale rates")
	}
	for i := 1; i < len(res.Rates); i++ {
		if res.Rates[i] <= res.Rates[i-1] {
			t.Error("rescaled rates not increasing")
		}
	}
	// Ratios must be preserved.
	r0 := res.Rates[0] / top
	want := tbl.Rates[0] / tbl.Rates[len(tbl.Rates)-1]
	if diff := r0 - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("rate ratio %v, want %v", r0, want)
	}
}

func TestRunWithRepeats(t *testing.T) {
	tbl, _ := PaperTable(2)
	tbl.Thresholds = []int64{4}
	tbl.Sizes = []Size{SizeS}
	tbl.Rates = []float64{1.2} // saturated on the small torus: marks happen
	opt := DefaultOptions()
	opt.K, opt.N = 4, 2
	opt.Warmup, opt.Measure = 300, 2000
	opt.Repeats = 3
	res, err := Run(tbl, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0][0][0]
	if c.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Three repeats of 2000 cycles deliver roughly 3x one repeat.
	single := opt
	single.Repeats = 1
	res1, err := Run(tbl, single)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delivered < 2*res1.Cells[0][0][0].Delivered {
		t.Errorf("repeats did not accumulate: %d vs %d", c.Delivered, res1.Cells[0][0][0].Delivered)
	}
	if c.PctStd < 0 {
		t.Error("negative std")
	}
}

func TestEstimateSaturationSmall(t *testing.T) {
	opt := DefaultOptions()
	opt.K, opt.N = 4, 2
	opt.Warmup, opt.Measure = 300, 2000
	tbl, _ := PaperTable(2)
	sat, err := EstimateSaturation(tbl.Pattern, SizeS.Dist, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The 4x4 torus has 4 links per node and average distance 2: the
	// theoretical bound is 2 flits/cycle/node; real saturation lands well
	// below the bound but far above a trickle.
	if sat < 0.4 || sat > 2.0 {
		t.Errorf("saturation %v outside plausible range", sat)
	}
}

// TestCellConfigDetectors pins which detector each paper table's cells run:
// the table's mechanism at the cell's threshold, through sim.Mechanism.
func TestCellConfigDetectors(t *testing.T) {
	fab, err := router.NewFabric(topology.New(4, 2), router.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	for id, want := range map[int]string{
		1: "pdm(th=16)",
		2: "ndm(t2=16)",
		8: "cmh(init=16,hops=64,steal-idle,local)",
	} {
		tbl, err := PaperTable(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := cellConfig(tbl, opt, 16, 0.2, SizeS)
		if err != nil {
			t.Fatalf("table %d: %v", id, err)
		}
		if got := cfg.Detector(fab).Name(); got != want {
			t.Errorf("table %d runs %q, want %q", id, got, want)
		}
	}
	opt.SelectivePromotion = true
	tbl, _ := PaperTable(2)
	cfg, err := cellConfig(tbl, opt, 16, 0.2, SizeS)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cfg.Detector(fab).Name(), "ndm(t1=1,t2=16,promote=selective)"; got != want {
		t.Errorf("selective table 2 runs %q, want %q", got, want)
	}
}

func TestRunUnknownMechanism(t *testing.T) {
	tbl, _ := PaperTable(2)
	tbl.Mechanism = "nope"
	tbl.Thresholds = []int64{2}
	tbl.Sizes = []Size{SizeS}
	tbl.Rates = []float64{0.2}
	opt := DefaultOptions()
	opt.K, opt.N = 4, 2
	opt.Warmup, opt.Measure = 100, 500
	if _, err := Run(tbl, opt); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestFormatPct(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, ".000"},
		{0.055, ".055"},
		{0.5, ".500"},
		{1.08, "1.08"},
		{26.0, "26.0"},
		{100, "100"},
	} {
		if got := formatPct(tc.in); got != tc.want {
			t.Errorf("formatPct(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestPaperDataShape(t *testing.T) {
	if len(PaperThresholds) != 10 {
		t.Error("threshold rows")
	}
	// Spot checks against the transcription.
	if PaperTable1[0][12] != 26.0 {
		t.Errorf("Table1[Th2][sat,s] = %v", PaperTable1[0][12])
	}
	if PaperTable2[4][13] != .138 {
		t.Errorf("Table2[Th32][sat,l] = %v", PaperTable2[4][13])
	}
	if row, ok := PaperTh32Rows[7]; !ok || row[9] != .203 {
		t.Error("Th32 row of table 7")
	}
	// NDM improves on PDM in the reference data at every saturated cell of
	// the Th4..Th64 rows.
	for th := 1; th <= 5; th++ {
		for c := 12; c < 16; c++ {
			if PaperTable2[th][c] >= PaperTable1[th][c] {
				t.Errorf("paper data: NDM not better at row %d col %d", th, c)
			}
		}
	}
}

func TestSaturatedImprovementRatio(t *testing.T) {
	mk := func(vals [2]float64) *Result {
		tbl, _ := PaperTable(2)
		tbl.Thresholds = []int64{2, 4}
		tbl.Sizes = []Size{SizeS}
		r := &Result{Table: tbl, Rates: []float64{0.6}}
		r.Cells = [][][]Cell{
			{{{Pct: vals[0]}}},
			{{{Pct: vals[1]}}},
		}
		return r
	}
	pdm := mk([2]float64{1.0, 0.5})
	ndm := mk([2]float64{0.1, 0.05})
	if got := SaturatedImprovementRatio(pdm, ndm); got != 10 {
		t.Errorf("ratio = %v, want 10", got)
	}
	// NDM zero caps at 100.
	ndm0 := mk([2]float64{0, 0})
	if got := SaturatedImprovementRatio(pdm, ndm0); got != 100 {
		t.Errorf("capped ratio = %v, want 100", got)
	}
	// PDM zero cells are skipped entirely.
	pdm0 := mk([2]float64{0, 0})
	if got := SaturatedImprovementRatio(pdm0, ndm); got != 0 {
		t.Errorf("empty ratio = %v, want 0", got)
	}
}
