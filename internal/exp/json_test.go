package exp

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func tinyResult(t *testing.T) *Result {
	t.Helper()
	tbl, _ := PaperTable(2)
	tbl.Thresholds = []int64{4, 32}
	tbl.Sizes = []Size{SizeS, SizeSL}
	tbl.Rates = []float64{0.15, 0.3, 0.45, 0.6} // DecodeJSON wants the paper's rate count
	opt := DefaultOptions()
	opt.K, opt.N = 4, 2
	opt.Warmup, opt.Measure = 200, 1000
	res, err := Run(tbl, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJSONRoundTrip(t *testing.T) {
	res := tinyResult(t)
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Table.ID != 2 || back.Options.K != 4 {
		t.Errorf("metadata lost: %+v", back.Options)
	}
	if len(back.Cells) != len(res.Cells) {
		t.Fatal("cells lost")
	}
	for ti := range res.Cells {
		for ri := range res.Cells[ti] {
			for si := range res.Cells[ti][ri] {
				if back.Cells[ti][ri][si] != res.Cells[ti][ri][si] {
					t.Fatalf("cell %d/%d/%d differs", ti, ri, si)
				}
			}
		}
	}
	// The restored result renders identically.
	var a, b bytes.Buffer
	res.Format(&a)
	back.Format(&b)
	if a.String() != b.String() {
		t.Error("restored result renders differently")
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	if _, err := DecodeJSON(strings.NewReader("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}
	if _, err := DecodeJSON(strings.NewReader(`{"table":9}`)); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := DecodeJSON(strings.NewReader(`{"table":2,"sizes":["x"]}`)); err == nil {
		t.Error("unknown size accepted")
	}
}

// TestDecodeJSONRejectsMalformedShapes: a saved table whose grid the
// renderers would index out of range is refused at decode time.
func TestDecodeJSONRejectsMalformedShapes(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"no-rates", `{"table":2,"rates":[],"thresholds":[2],"sizes":["s"],"cells":[[]]}`,
			"table 2 has 0 rates"},
		{"rate-count", `{"table":1,"rates":[0.1,0.2],"thresholds":[2,4],"sizes":["s"],"cells":[]}`,
			"table 1 has 2 rates, want the paper's 4"},
		{"threshold-rows", `{"table":2,"rates":[1,2,3,4],"thresholds":[2,4],"sizes":["s"],"cells":[[[{}],[{}],[{}],[{}]]]}`,
			"cell grid is not 2 thresholds x 4 rates x 1 sizes"},
		{"rate-columns", `{"table":2,"rates":[1,2,3,4],"thresholds":[2],"sizes":["s"],"cells":[[[{}],[{}],[{}]]]}`,
			"cell grid is not 1 thresholds x 4 rates x 1 sizes"},
		{"size-columns", `{"table":2,"rates":[1,2,3,4],"thresholds":[2],"sizes":["s","l"],"cells":[[[{},{}],[{},{}],[{},{}],[{}]]]}`,
			"cell grid is not 1 thresholds x 4 rates x 2 sizes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeJSON(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeJSON: err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestCompareReportRejectsDifferentColumns: size columns pair by index, so
// two tables with different size keys are refused, not compared.
func TestCompareReportRejectsDifferentColumns(t *testing.T) {
	pdm := fakeResult(t, MechPDM, []float64{1, 1})
	ndm := fakeResult(t, MechNDM, []float64{1, 1})
	ndm.Table.Sizes = []Size{SizeS, SizeLL}
	if err := CompareReport(io.Discard, pdm, ndm); err == nil {
		t.Fatal("different size columns accepted")
	}
}

// FuzzTableJSON: any pair of saved tables either fails to decode or
// renders, compares and yields a length sensitivity without panicking.
func FuzzTableJSON(f *testing.F) {
	valid := `{"table":%d,"rates":[0.4,0.5,0.6,0.7],"thresholds":[2,4],"sizes":["s","sl"],` +
		`"cells":[[[{"Pct":1},{"Pct":2}],[{},{}],[{},{}],[{"Pct":3},{"Pct":0.05}]],` +
		`[[{},{}],[{},{}],[{},{}],[{"Pct":0.01},{"Pct":0}]]]}`
	pdm, ndm := fmt.Sprintf(valid, 1), fmt.Sprintf(valid, 2)
	f.Add([]byte(pdm), []byte(ndm))
	f.Add([]byte(pdm), []byte(strings.Replace(ndm, `"thresholds":[2,4]`, `"thresholds":[4,8]`, 1)))
	f.Add([]byte(pdm), []byte(strings.Replace(ndm, `"sizes":["s","sl"]`, `"sizes":["l","L"]`, 1)))
	f.Add([]byte(pdm), []byte(`{"table":2,"rates":[1,2,3,4],"thresholds":[2],"sizes":["s","sl"],"cells":[[[{},{}],[{},{}],[{},{}],[{},{}]]]}`))
	f.Add([]byte(`{"table":1,"rates":[0.1,0.2],"thresholds":[2,4],"sizes":["s"],"cells":[]}`), []byte(ndm))
	f.Add([]byte(`{"table":2,"rates":[],"thresholds":[2,4],"sizes":["s"],"cells":[]}`), []byte(ndm))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pr, err := DecodeJSON(bytes.NewReader(a))
		if err != nil {
			return
		}
		nr, err := DecodeJSON(bytes.NewReader(b))
		if err != nil {
			return
		}
		pr.Format(io.Discard)
		nr.Format(io.Discard)
		_ = CompareReport(io.Discard, pr, nr)
		LengthSensitivity(pr, 0.1)
		LengthSensitivity(nr, 0.1)
	})
}
