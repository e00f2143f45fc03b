package exp

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonResult is the serialized form of a measured table: enough to re-render
// or post-process without re-running the sweep.
type jsonResult struct {
	Table       int        `json:"table"`
	Mechanism   Mechanism  `json:"mechanism"`
	PatternName string     `json:"pattern"`
	K           int        `json:"k"`
	N           int        `json:"n"`
	Warmup      int64      `json:"warmup"`
	Measure     int64      `json:"measure"`
	Seed        uint64     `json:"seed"`
	Repeats     int        `json:"repeats,omitempty"`
	Relative    bool       `json:"relativeRates"`
	Rates       []float64  `json:"rates"`
	Thresholds  []int64    `json:"thresholds"`
	Sizes       []string   `json:"sizes"`
	Cells       [][][]Cell `json:"cells"`
}

// EncodeJSON writes the result as JSON.
func (r *Result) EncodeJSON(w io.Writer) error {
	sizes := make([]string, len(r.Table.Sizes))
	for i, s := range r.Table.Sizes {
		sizes[i] = s.Key
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonResult{
		Table:       r.Table.ID,
		Mechanism:   r.Table.Mechanism,
		PatternName: r.Table.PatternName,
		K:           r.Options.K,
		N:           r.Options.N,
		Warmup:      r.Options.Warmup,
		Measure:     r.Options.Measure,
		Seed:        r.Options.Seed,
		Repeats:     r.Options.Repeats,
		Relative:    r.Options.RelativeRates,
		Rates:       r.Rates,
		Thresholds:  r.Table.Thresholds,
		Sizes:       sizes,
		Cells:       r.Cells,
	})
}

// DecodeJSON reads a result previously written by EncodeJSON. The restored
// Result supports formatting and cell lookup (its Table spec is rebuilt
// from the paper's specification for the table ID). It refuses a result
// whose rate count differs from the paper table's or whose cell grid is not
// thresholds x rates x sizes.
func DecodeJSON(r io.Reader) (*Result, error) {
	var jr jsonResult
	if err := json.NewDecoder(r).Decode(&jr); err != nil {
		return nil, err
	}
	tbl, err := PaperTable(jr.Table)
	if err != nil {
		return nil, err
	}
	tbl.Thresholds = jr.Thresholds
	// Restore the size columns actually present.
	var sizes []Size
	for _, key := range jr.Sizes {
		switch key {
		case "s":
			sizes = append(sizes, SizeS)
		case "l":
			sizes = append(sizes, SizeL)
		case "L":
			sizes = append(sizes, SizeLL)
		case "sl":
			sizes = append(sizes, SizeSL)
		default:
			return nil, fmt.Errorf("exp: unknown size key %q", key)
		}
	}
	tbl.Sizes = sizes
	// Format, CompareReport and LengthSensitivity index the grid by the
	// spec's shape and read the last rate as the saturated one.
	if len(jr.Rates) != len(tbl.Rates) {
		return nil, fmt.Errorf("exp: table %d has %d rates, want the paper's %d", jr.Table, len(jr.Rates), len(tbl.Rates))
	}
	grid := len(jr.Cells) == len(jr.Thresholds)
	for _, row := range jr.Cells {
		grid = grid && len(row) == len(jr.Rates)
		for _, col := range row {
			grid = grid && len(col) == len(sizes)
		}
	}
	if !grid {
		return nil, fmt.Errorf("exp: cell grid is not %d thresholds x %d rates x %d sizes",
			len(jr.Thresholds), len(jr.Rates), len(sizes))
	}
	opt := Options{Repeats: jr.Repeats, RelativeRates: jr.Relative}
	opt.K, opt.N, opt.Warmup, opt.Measure, opt.Seed = jr.K, jr.N, jr.Warmup, jr.Measure, jr.Seed
	return &Result{Table: tbl, Options: opt, Rates: jr.Rates, Cells: jr.Cells}, nil
}
