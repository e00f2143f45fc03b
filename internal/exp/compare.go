package exp

import (
	"fmt"
	"io"
	"slices"
)

// CompareReport writes a paper-style summary comparing a measured PDM table
// and a measured NDM table over the same workload grid (Tables 1 and 2):
// per-threshold detection percentages in the saturated column, their
// ratios, and the claim-level aggregates the paper quotes. Columns pair by
// index, so the two tables must have the same rate count and size keys.
func CompareReport(w io.Writer, pdm, ndm *Result) error {
	if len(pdm.Rates) == 0 || len(pdm.Rates) != len(ndm.Rates) {
		return fmt.Errorf("exp: PDM table has %d rates, NDM table %d", len(pdm.Rates), len(ndm.Rates))
	}
	if !slices.EqualFunc(pdm.Table.Sizes, ndm.Table.Sizes, func(a, b Size) bool { return a.Key == b.Key }) {
		return fmt.Errorf("exp: PDM and NDM tables have different size columns")
	}
	last := len(pdm.Rates) - 1
	fmt.Fprintf(w, "PDM vs NDM at the saturated load (%.4g flits/cycle/node), by threshold:\n\n", pdm.Rates[last])
	fmt.Fprintf(w, "%-10s %12s %12s %10s\n", "threshold", "PDM worst%", "NDM worst%", "ratio")
	for ti, th := range pdm.Table.Thresholds {
		ndmTi := slices.Index(ndm.Table.Thresholds, th)
		if ndmTi < 0 {
			continue
		}
		var pWorst, nWorst float64
		for si := range pdm.Table.Sizes {
			pWorst = max(pWorst, pdm.Cells[ti][last][si].Pct)
			nWorst = max(nWorst, ndm.Cells[ndmTi][last][si].Pct)
		}
		ratio := "-"
		if nWorst > 0 {
			ratio = fmt.Sprintf("%.1fx", pWorst/nWorst)
		} else if pWorst > 0 {
			ratio = ">inf"
		}
		fmt.Fprintf(w, "Th %-7d %12s %12s %10s\n", th, formatPct(pWorst), formatPct(nWorst), ratio)
	}
	fmt.Fprintf(w, "\nmean saturated-cell improvement (PDM%%/NDM%%, capped at 100x): %.1fx\n",
		SaturatedImprovementRatio(pdm, ndm))
	fmt.Fprintf(w, "(the paper reports a reduction \"on average by a factor of %.0f\")\n",
		PaperNDMOverPDMImprovement)
	return nil
}

// LengthSensitivity quantifies the paper's message-length claim for one
// measured table: for each message-size column at the saturated load, the
// smallest threshold whose detection percentage drops below the target.
// PDM's threshold should grow steeply with message length; NDM's should
// barely move.
func LengthSensitivity(r *Result, target float64) map[string]int64 {
	out := make(map[string]int64, len(r.Table.Sizes))
	last := len(r.Rates) - 1
	for si, size := range r.Table.Sizes {
		out[size.Key] = -1 // never reaches the target
		for ti, th := range r.Table.Thresholds {
			if r.Cells[ti][last][si].Pct <= target {
				out[size.Key] = th
				break
			}
		}
	}
	return out
}
